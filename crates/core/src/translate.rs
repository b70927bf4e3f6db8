//! The HPA→DPA translation path (paper §3.2 and Figure 4): HSN field
//! split, the two-level segment mapping cache, the three-level table walk
//! on a miss, and the per-outcome latency model.
//!
//! Latencies follow §6.1: an L1 SMC hit costs one controller cycle; an L2
//! hit costs 7 more; a full miss walks the host base address table and the
//! AU base address table (one SRAM cycle each) and then reads the segment
//! mapping table in reserved DRAM.

use dtl_dram::Picos;
use serde::{Deserialize, Serialize};

use crate::addr::{div_rem, AuId, Dsn, HostId, HostPhysAddr, Hsn};
use crate::config::DtlConfig;
use crate::error::DtlError;
use crate::smc::{SegmentMappingCache, SmcOutcome, SmcStats};
use crate::tables::MappingTables;

/// Latency constants of the translation path, in controller cycles.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TranslationLatency {
    /// One controller clock period.
    pub cycle: Picos,
    /// L1 SMC hit, cycles (paper: 1).
    pub l1_hit_cycles: u64,
    /// Additional cycles for an L2 hit (paper: 7).
    pub l2_hit_cycles: u64,
    /// SRAM cycles of the miss walk before the DRAM read (paper: 2).
    pub walk_sram_cycles: u64,
}

impl TranslationLatency {
    /// The paper's §6.1 constants at the configured controller clock.
    pub fn paper(config: &DtlConfig) -> Self {
        TranslationLatency {
            cycle: config.controller_cycle(),
            l1_hit_cycles: 1,
            l2_hit_cycles: 7,
            walk_sram_cycles: 2,
        }
    }

    /// The latency of a lookup with the given outcome; `dram_access` is the
    /// raw DRAM latency paid by a full miss.
    pub fn of(&self, outcome: SmcOutcome, dram_access: Picos) -> Picos {
        match outcome {
            SmcOutcome::L1Hit => self.cycle * self.l1_hit_cycles,
            SmcOutcome::L2Hit => self.cycle * (self.l1_hit_cycles + self.l2_hit_cycles),
            SmcOutcome::Miss => {
                self.cycle * (self.l1_hit_cycles + self.l2_hit_cycles + self.walk_sram_cycles)
                    + dram_access
            }
        }
    }
}

/// A successful translation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Translation {
    /// The host segment number that was translated.
    pub hsn: Hsn,
    /// The device segment it maps to.
    pub dsn: Dsn,
    /// Byte offset within the segment.
    pub offset: u64,
    /// Where the lookup was satisfied.
    pub smc: SmcOutcome,
    /// Latency of this lookup.
    pub latency: Picos,
}

/// The translation front end: SMC over the mapping tables.
#[derive(Debug)]
pub struct Translator {
    smc: SegmentMappingCache,
    latency: TranslationLatency,
    au_bytes: u64,
    segment_bytes: u64,
}

impl Translator {
    /// Builds the translator from the DTL configuration.
    pub fn new(config: &DtlConfig) -> Self {
        Translator {
            smc: SegmentMappingCache::new(
                config.smc_l1_entries,
                config.smc_l2_entries,
                config.smc_l2_ways,
            ),
            latency: TranslationLatency::paper(config),
            au_bytes: config.au_bytes,
            segment_bytes: config.segment_bytes,
        }
    }

    /// Splits an HPA into its HSN fields (Figure 4: host ID | AU ID | AU
    /// offset) plus the byte offset within the segment.
    ///
    /// An AU index too wide for [`AuId`] saturates rather than truncating
    /// onto a real AU; no device maps an id that large.
    #[inline]
    pub fn hsn_of(&self, host: HostId, hpa: HostPhysAddr) -> (Hsn, u64) {
        let (au, within_au) = div_rem(hpa.as_u64(), self.au_bytes);
        let (au_offset, _) = div_rem(within_au, self.segment_bytes);
        let (_, offset) = div_rem(hpa.as_u64(), self.segment_bytes);
        let au = AuId(u32::try_from(au).unwrap_or(u32::MAX));
        (Hsn { host, au, au_offset: au_offset as u32 }, offset)
    }

    /// Translates one access, filling the SMC on a miss. `dram_access` is
    /// the backend's raw access latency (the miss-walk DRAM read).
    ///
    /// # Errors
    ///
    /// [`DtlError::UnmappedAddress`] when the HSN has no mapping.
    pub fn translate(
        &mut self,
        host: HostId,
        hpa: HostPhysAddr,
        tables: &MappingTables,
        dram_access: Picos,
    ) -> Result<Translation, DtlError> {
        let (hsn, offset) = self.hsn_of(host, hpa);
        if hsn.au.0 >= 1 << Hsn::AU_BITS {
            // Beyond any AU a device can hold, and too wide for the SMC key:
            // looked up, it would alias another host's entry.
            return Err(DtlError::UnmappedAddress { host, hpa });
        }
        let (smc, cached) = self.smc.lookup(hsn);
        let dsn = match cached {
            Some(d) => d,
            None => {
                let d = tables.translate(hsn).ok_or(DtlError::UnmappedAddress { host, hpa })?;
                self.smc.fill(hsn, d);
                d
            }
        };
        Ok(Translation { hsn, dsn, offset, smc, latency: self.latency.of(smc, dram_access) })
    }

    /// Invalidates a translation after a remap.
    pub fn invalidate(&mut self, hsn: Hsn) -> bool {
        self.smc.invalidate(hsn)
    }

    /// Invalidates the translations of offsets `0..n` of a released AU.
    pub fn invalidate_au(&mut self, host: HostId, au: AuId, n: u32) -> bool {
        self.smc.invalidate_au(host, au, n)
    }

    /// SMC statistics.
    pub fn stats(&self) -> SmcStats {
        self.smc.stats()
    }

    /// The latency constants in effect.
    pub fn latency_model(&self) -> TranslationLatency {
        self.latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::SegmentGeometry;
    use proptest::prelude::*;

    fn setup() -> (Translator, MappingTables, DtlConfig) {
        let cfg = DtlConfig::tiny();
        let geo = SegmentGeometry { channels: 2, ranks_per_channel: 4, segs_per_rank: 128 };
        let mut tables = MappingTables::new(cfg.segments_per_au(), geo);
        tables.register_host(HostId(0));
        let dsns: Vec<Dsn> = (0..cfg.segments_per_au()).map(Dsn).collect();
        tables.create_au(HostId(0), AuId(0), dsns).unwrap();
        (Translator::new(&cfg), tables, cfg)
    }

    #[test]
    fn hsn_split_matches_figure_4() {
        let (t, _, cfg) = setup();
        let hpa = HostPhysAddr::new(cfg.au_bytes * 3 + cfg.segment_bytes * 5 + 1234);
        let (hsn, off) = t.hsn_of(HostId(2), hpa);
        assert_eq!(hsn.host, HostId(2));
        assert_eq!(hsn.au, AuId(3));
        assert_eq!(hsn.au_offset, 5);
        assert_eq!(off, 1234);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The HSN split is the plain `/` and `%` arithmetic of Figure 4
        /// whether or not the AU and segment sizes are powers of two, and
        /// wherever the HPA lies (past 2^32, past the AU id field).
        #[test]
        fn hsn_split_equals_the_plain_arithmetic(
            (au_bytes, segment_bytes) in prop_oneof![
                Just((2u64 << 30, 2u64 << 20)),
                Just((8 << 20, 256 << 10)),
                Just((5 << 20, 1 << 20)),
                Just((6 << 20, 3 << 19)),
                Just((7_000_000, 1_000)),
            ],
            hpa in any::<u64>(),
            narrow in 0u32..64,
        ) {
            let hpa = hpa >> narrow;
            let cfg = DtlConfig { au_bytes, segment_bytes, ..DtlConfig::tiny() };
            let (hsn, offset) = Translator::new(&cfg).hsn_of(HostId(3), HostPhysAddr::new(hpa));
            prop_assert_eq!(hsn.host, HostId(3));
            prop_assert_eq!(hsn.au, AuId(u32::try_from(hpa / au_bytes).unwrap_or(u32::MAX)));
            prop_assert_eq!(u64::from(hsn.au_offset), (hpa % au_bytes) / segment_bytes);
            prop_assert_eq!(offset, hpa % segment_bytes);
        }
    }

    #[test]
    fn miss_then_hit_latencies_follow_section_6_1() {
        let (mut t, tables, cfg) = setup();
        let dram = Picos::from_ns(121);
        let hpa = HostPhysAddr::new(cfg.segment_bytes * 7);
        let first = t.translate(HostId(0), hpa, &tables, dram).unwrap();
        assert_eq!(first.smc, SmcOutcome::Miss);
        assert_eq!(first.dsn, Dsn(7));
        // Miss = 10 controller cycles + the DRAM read.
        let cyc = cfg.controller_cycle();
        assert_eq!(first.latency, cyc * 10 + dram);
        let second = t.translate(HostId(0), hpa, &tables, dram).unwrap();
        assert_eq!(second.smc, SmcOutcome::L1Hit);
        assert_eq!(second.latency, cyc);
        assert_eq!(second.dsn, Dsn(7));
    }

    #[test]
    fn l2_hit_costs_eight_cycles() {
        let (mut t, tables, cfg) = setup();
        let dram = Picos::from_ns(121);
        // Evict the target from the tiny 8-entry L1 by touching many others.
        let target = HostPhysAddr::new(0);
        t.translate(HostId(0), target, &tables, dram).unwrap();
        for k in 1..=16u64 {
            t.translate(HostId(0), HostPhysAddr::new(cfg.segment_bytes * k), &tables, dram)
                .unwrap();
        }
        let again = t.translate(HostId(0), target, &tables, dram).unwrap();
        assert_eq!(again.smc, SmcOutcome::L2Hit);
        assert_eq!(again.latency, cfg.controller_cycle() * 8);
    }

    #[test]
    fn unmapped_rejected_and_not_cached() {
        let (mut t, tables, cfg) = setup();
        let bad = HostPhysAddr::new(cfg.au_bytes * 9);
        for _ in 0..2 {
            let err = t.translate(HostId(0), bad, &tables, Picos::from_ns(121));
            assert!(matches!(err, Err(DtlError::UnmappedAddress { .. })));
        }
        assert_eq!(t.stats().l2_misses, 2, "unmapped lookups never fill the SMC");
    }

    #[test]
    fn addresses_past_the_au_id_field_are_unmapped_not_aliased() {
        let (mut t, tables, cfg) = setup();
        let dram = Picos::from_ns(121);
        t.translate(HostId(0), HostPhysAddr::new(0), &tables, dram).unwrap();
        // AU 2^28 would pack onto host 1's AU 0, AU 2^32 would truncate to
        // this host's AU 0: both must miss without touching the SMC.
        for au in [1u64 << 28, 1 << 32] {
            let far = HostPhysAddr::new(au * cfg.au_bytes);
            let err = t.translate(HostId(0), far, &tables, dram);
            assert!(matches!(err, Err(DtlError::UnmappedAddress { .. })));
        }
        assert_eq!(t.stats().l1_misses, 1, "only the mapped access reached the SMC");
    }

    #[test]
    fn invalidate_forces_rewalk() {
        let (mut t, mut tables, cfg) = setup();
        let dram = Picos::from_ns(121);
        let hpa = HostPhysAddr::new(0);
        let first = t.translate(HostId(0), hpa, &tables, dram).unwrap();
        assert_eq!(first.dsn, Dsn(0));
        // Remap HSN 0 to a new DSN and invalidate.
        let hsn = first.hsn;
        tables.remap(hsn, Dsn(999)).unwrap();
        assert!(t.invalidate(hsn));
        let again = t.translate(HostId(0), hpa, &tables, dram).unwrap();
        assert_eq!(again.smc, SmcOutcome::Miss);
        assert_eq!(again.dsn, Dsn(999));
        let _ = cfg;
    }
}
