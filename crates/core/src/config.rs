//! DTL configuration and defaults.

use dtl_dram::{DramConfig, Picos, PowerPolicyKind};
use serde::{Deserialize, Serialize};

use crate::addr::{Hsn, SegmentGeometry};
use crate::alloc::rank_too_large;
use crate::error::DtlError;

/// Configuration of the DRAM Translation Layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DtlConfig {
    /// Translation granularity (paper default: 2 MiB).
    pub segment_bytes: u64,
    /// Allocation unit: minimum memory granted to a VM (paper: 2 GiB).
    pub au_bytes: u64,
    /// Hosts the device can serve (paper sizing study: 16).
    pub max_hosts: u16,
    /// L1 segment mapping cache entries (fully associative; paper: 64).
    pub smc_l1_entries: usize,
    /// L2 segment mapping cache total entries (paper: 1024).
    pub smc_l2_entries: usize,
    /// L2 SMC associativity (paper: 4).
    pub smc_l2_ways: usize,
    /// Hotness profiling window for victim-rank selection (paper: 0.5 ms).
    pub profile_window: Picos,
    /// Idle threshold of the hypothetical victim rank before migration
    /// starts (paper: 50 ms).
    pub profile_threshold: Picos,
    /// CLOCK target-segment-pointer search timeout (paper: 40 ns).
    pub tsp_timeout: Picos,
    /// Migration abort retries before the job is re-queued (paper: 3).
    pub migration_retry_limit: u32,
    /// Controller clock in GHz (paper: 1.5 GHz).
    pub controller_ghz: f64,
    /// Rank power-management policy (default: the paper's fixed-threshold
    /// scheme, bit-compatible with the pre-policy engine).
    pub power_policy: PowerPolicyKind,
}

impl Default for DtlConfig {
    fn default() -> Self {
        DtlConfig {
            segment_bytes: 2 << 20,
            au_bytes: 2 << 30,
            max_hosts: 16,
            smc_l1_entries: 64,
            smc_l2_entries: 1024,
            smc_l2_ways: 4,
            profile_window: Picos::from_us(500),
            profile_threshold: Picos::from_ms(50),
            tsp_timeout: Picos::from_ns(40),
            migration_retry_limit: 3,
            controller_ghz: 1.5,
            power_policy: PowerPolicyKind::FixedThreshold,
        }
    }
}

impl DtlConfig {
    /// The paper's configuration (all defaults).
    pub fn paper() -> Self {
        Self::default()
    }

    /// A scaled configuration for fast tests: 256 KiB segments, 8 MiB AUs,
    /// and microsecond-scale hotness thresholds.
    pub fn tiny() -> Self {
        DtlConfig {
            segment_bytes: 256 << 10,
            au_bytes: 8 << 20,
            max_hosts: 4,
            smc_l1_entries: 8,
            smc_l2_entries: 64,
            smc_l2_ways: 4,
            profile_window: Picos::from_us(50),
            profile_threshold: Picos::from_us(500),
            tsp_timeout: Picos::from_ns(40),
            migration_retry_limit: 3,
            controller_ghz: 1.5,
            power_policy: PowerPolicyKind::FixedThreshold,
        }
    }

    /// Segments per allocation unit.
    pub fn segments_per_au(&self) -> u64 {
        self.au_bytes / self.segment_bytes
    }

    /// One controller clock period.
    pub fn controller_cycle(&self) -> Picos {
        Picos::from_ns_f64(1.0 / self.controller_ghz)
    }

    /// Validates the configuration on its own and against a DRAM
    /// configuration.
    ///
    /// # Errors
    ///
    /// Returns [`DtlError::InvalidConfig`] when sizes are zero, not powers
    /// of two, or inconsistent (AU not a multiple of segment, AU not a
    /// multiple of `channels * segment` so allocations cannot balance, or
    /// the device capacity not a whole number of AUs).
    pub fn validate(&self, dram: &DramConfig) -> Result<(), DtlError> {
        if !self.segment_bytes.is_power_of_two() || self.segment_bytes == 0 {
            return Err(DtlError::InvalidConfig {
                reason: format!("segment_bytes {} must be a power of two", self.segment_bytes),
            });
        }
        if !self.au_bytes.is_power_of_two() || self.au_bytes < self.segment_bytes {
            return Err(DtlError::InvalidConfig {
                reason: "au_bytes must be a power of two and at least one segment".into(),
            });
        }
        if !dram.geometry.rank_bytes().is_multiple_of(self.segment_bytes) {
            return Err(DtlError::InvalidConfig {
                reason: "rank size must be a whole number of segments".into(),
            });
        }
        self.validate_geometry(&SegmentGeometry::new(
            dram.geometry.channels,
            dram.geometry.ranks_per_channel,
            dram.geometry.rank_bytes(),
            self.segment_bytes,
        ))?;
        if self.smc_l1_entries == 0 || self.smc_l2_entries == 0 || self.smc_l2_ways == 0 {
            return Err(DtlError::InvalidConfig { reason: "SMC sizes must be non-zero".into() });
        }
        if !self.smc_l2_entries.is_multiple_of(self.smc_l2_ways) {
            return Err(DtlError::InvalidConfig {
                reason: "L2 SMC entries must divide evenly into ways".into(),
            });
        }
        if self.profile_window == Picos::ZERO || self.profile_threshold == Picos::ZERO {
            return Err(DtlError::InvalidConfig {
                reason: "hotness windows must be non-zero".into(),
            });
        }
        Ok(())
    }

    /// Validates the segment and AU sizes against the segment geometry of
    /// the device they will run on — the preconditions of the allocator's
    /// channel interleave, of the packed [`Hsn`] key, and of the dense
    /// per-segment tables. [`crate::DtlDevice::new`] refuses a geometry
    /// that fails this.
    ///
    /// # Errors
    ///
    /// [`DtlError::InvalidConfig`] when an AU is not a whole number of
    /// segments per channel, an AU holds more than 2²⁰ segments (its offset
    /// would alias another key's AU id), the device holds 2²⁸ AUs or more
    /// (an AU id would alias another key's host id), the device's segments
    /// do not fit a table index, or a rank holds 2³² segments or more (the
    /// allocator's free runs name a slot in a `u32`).
    pub fn validate_geometry(&self, geo: &SegmentGeometry) -> Result<(), DtlError> {
        let invalid = |reason: String| Err(DtlError::InvalidConfig { reason });
        if self.segment_bytes == 0 || self.au_bytes < self.segment_bytes {
            return invalid("an AU must hold at least one segment".into());
        }
        let per_au = self.segments_per_au();
        let channels = u64::from(geo.channels);
        if channels == 0 || !per_au.is_multiple_of(channels) {
            return invalid(format!(
                "an AU of {per_au} segments cannot balance over {channels} channels"
            ));
        }
        if per_au > 1 << Hsn::OFFSET_BITS {
            return invalid(format!(
                "an AU of {per_au} segments overflows the {}-bit AU offset of a segment key",
                Hsn::OFFSET_BITS
            ));
        }
        // One 8-byte reverse-table entry per segment must be addressable.
        let segments = channels
            .checked_mul(u64::from(geo.ranks_per_channel))
            .and_then(|ranks| ranks.checked_mul(geo.segs_per_rank))
            .filter(|segments| segments.checked_mul(8).is_some_and(|b| isize::try_from(b).is_ok()));
        let Some(segments) = segments else {
            return invalid(format!(
                "{channels} channels x {} ranks x {} segments do not fit a table index",
                geo.ranks_per_channel, geo.segs_per_rank
            ));
        };
        if segments / per_au >= 1 << Hsn::AU_BITS {
            return invalid(format!(
                "{} AUs per device overflow the {}-bit AU id of a segment key",
                segments / per_au,
                Hsn::AU_BITS
            ));
        }
        if u32::try_from(geo.segs_per_rank).is_err() {
            return invalid(rank_too_large(geo.segs_per_rank));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_paper() {
        let c = DtlConfig::paper();
        assert_eq!(c.segment_bytes, 2 << 20);
        assert_eq!(c.au_bytes, 2 << 30);
        assert_eq!(c.segments_per_au(), 1024);
        assert_eq!(c.smc_l1_entries, 64);
        assert_eq!(c.smc_l2_entries, 1024);
        assert_eq!(c.profile_threshold, Picos::from_ms(50));
        assert_eq!(c.tsp_timeout, Picos::from_ns(40));
        c.validate(&DramConfig::cxl_1tb_ddr4_2933()).unwrap();
    }

    #[test]
    fn tiny_validates_against_tiny_dram() {
        DtlConfig::tiny().validate(&DramConfig::tiny()).unwrap();
    }

    #[test]
    fn bad_configs_rejected() {
        let dram = DramConfig::cxl_1tb_ddr4_2933();
        let mut c = DtlConfig::paper();
        c.segment_bytes = 3 << 20;
        assert!(c.validate(&dram).is_err());

        let mut c = DtlConfig::paper();
        c.au_bytes = 1 << 20; // smaller than a segment
        assert!(c.validate(&dram).is_err());

        let mut c = DtlConfig::paper();
        c.smc_l2_ways = 3; // 1024 % 3 != 0
        assert!(c.validate(&dram).is_err());

        let mut c = DtlConfig::paper();
        c.profile_window = Picos::ZERO;
        assert!(c.validate(&dram).is_err());
    }

    #[test]
    fn validate_geometry_rejects_what_the_tables_cannot_hold() {
        let reason = |cfg: DtlConfig, geo: SegmentGeometry| match cfg.validate_geometry(&geo) {
            Err(DtlError::InvalidConfig { reason }) => reason,
            other => panic!("expected InvalidConfig, got {other:?}"),
        };
        let geo = SegmentGeometry { channels: 2, ranks_per_channel: 4, segs_per_rank: 32 };
        let tiny = DtlConfig::tiny();
        tiny.validate_geometry(&geo).unwrap();
        DtlConfig::paper()
            .validate_geometry(&SegmentGeometry::new(4, 8, 32 << 30, 2 << 20))
            .unwrap();

        // 5 segments over 2 channels: the interleave cannot balance.
        let odd = DtlConfig { segment_bytes: 1 << 20, au_bytes: 5 << 20, ..tiny };
        assert!(reason(odd, geo).contains("cannot balance over 2 channels"));
        assert!(reason(tiny, SegmentGeometry { channels: 0, ..geo }).contains("cannot balance"));

        // 2^21 segments an AU: offset bit 20 would read as AU id bit 0.
        let wide = DtlConfig { segment_bytes: 1, au_bytes: 1 << 21, ..tiny };
        assert!(reason(wide, geo).contains("AU offset"));
        let widest_ok = DtlConfig { segment_bytes: 1, au_bytes: 1 << 20, ..tiny };
        widest_ok
            .validate_geometry(&SegmentGeometry {
                channels: 2,
                ranks_per_channel: 1,
                segs_per_rank: 1 << 20,
            })
            .unwrap();

        // 2^28 one-segment AUs: the top AU id would read as a host id bit.
        let small_au = DtlConfig { segment_bytes: 1 << 20, au_bytes: 1 << 20, ..tiny };
        let many = SegmentGeometry { channels: 1, ranks_per_channel: 1, segs_per_rank: 1 << 28 };
        assert!(reason(small_au, many).contains("AU id"));
        small_au
            .validate_geometry(&SegmentGeometry { segs_per_rank: (1 << 28) - 1, ..many })
            .unwrap();

        // 2^32 segments a rank: a free run's u32 slot would wrap.
        let deep = SegmentGeometry { channels: 1, ranks_per_channel: 1, segs_per_rank: 1 << 33 };
        assert_eq!(
            reason(DtlConfig::paper(), deep),
            "a rank of 8589934592 segments overflows the 32-bit slots of the allocator's free runs"
        );
        assert!(reason(DtlConfig::paper(), SegmentGeometry { segs_per_rank: 1 << 32, ..deep })
            .contains("32-bit slots"));
        DtlConfig::paper()
            .validate_geometry(&SegmentGeometry { segs_per_rank: u32::MAX.into(), ..deep })
            .unwrap();

        // A segment count that wraps u64, and one whose table would not fit
        // the address space.
        let wraps = SegmentGeometry { channels: 2, ranks_per_channel: 2, segs_per_rank: 1 << 62 };
        assert!(reason(tiny, wraps).contains("do not fit a table index"));
        let huge = SegmentGeometry { channels: 2, ranks_per_channel: 1, segs_per_rank: 1 << 60 };
        assert!(reason(tiny, huge).contains("do not fit a table index"));

        // Sizes that would divide by zero are an error, not a panic.
        assert!(
            reason(DtlConfig { segment_bytes: 0, ..tiny }, geo).contains("at least one segment")
        );
        assert!(reason(DtlConfig { au_bytes: 0, ..tiny }, geo).contains("at least one segment"));
    }

    #[test]
    fn validate_applies_the_geometry_limits() {
        let dram = DramConfig::cxl_1tb_ddr4_2933();
        // 1-byte "segments" on a 1 TB device: far more than 2^28 AUs.
        let c = DtlConfig { segment_bytes: 1, au_bytes: 4, ..DtlConfig::paper() };
        assert!(matches!(c.validate(&dram), Err(DtlError::InvalidConfig { .. })));
    }

    #[test]
    fn controller_cycle_is_two_thirds_ns() {
        let c = DtlConfig::paper();
        assert!((c.controller_cycle().as_ns_f64() - 0.667).abs() < 0.01);
    }
}
