//! The DTL address spaces and their relationships.
//!
//! The DTL introduces one level of indirection (paper §3.2):
//!
//! * the host issues **host physical addresses** (HPA) over CXL;
//! * an HPA's upper bits form a **host segment number** (HSN) composed of
//!   *host ID*, *allocation unit* (AU) ID, and AU offset;
//! * the segment mapping table translates HSN to a **DRAM segment number**
//!   (DSN), whose position in the device physical address space is fixed by
//!   the Figure 6 bit mapping: channel bits lowest, then the within-rank
//!   segment index, then rank bits on top.

use core::fmt;

use serde::{Deserialize, Serialize};

/// `(n / d, n % d)`, the split every address decomposition here is made of,
/// without a 64-bit hardware division wherever one can be avoided: a shift
/// and a mask when `d` is a power of two (the paper's 2 MiB segments and
/// 2 GiB AUs are bit fields of the HPA, Figure 4; channel counts usually
/// are one too), a 32-bit division when both operands fit, the plain 64-bit
/// one otherwise. The divisors are per-device constants, so the branches
/// predict perfectly; on the per-access path this is worth several
/// divisions of 30–90 cycles each.
///
/// # Panics
///
/// Panics if `d` is zero, like the division it replaces.
#[inline]
pub fn div_rem(n: u64, d: u64) -> (u64, u64) {
    if d.is_power_of_two() {
        (n >> d.trailing_zeros(), n & (d - 1))
    } else if let (Ok(n), Ok(d)) = (u32::try_from(n), u32::try_from(d)) {
        (u64::from(n / d), u64::from(n % d))
    } else {
        (n / d, n % d)
    }
}

/// A host physical address as seen on the CXL link (per-host address
/// space).
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct HostPhysAddr(u64);

impl HostPhysAddr {
    /// Creates an HPA from a raw byte address.
    #[inline]
    pub const fn new(addr: u64) -> Self {
        HostPhysAddr(addr)
    }

    /// Raw byte address.
    #[inline]
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Byte offset within its segment, given the segment size.
    #[inline]
    pub const fn segment_offset(self, segment_bytes: u64) -> u64 {
        self.0 % segment_bytes
    }

    /// The segment index within the host address space.
    #[inline]
    pub const fn segment_index(self, segment_bytes: u64) -> u64 {
        self.0 / segment_bytes
    }

    /// This address plus `bytes`.
    #[inline]
    pub const fn offset_by(self, bytes: u64) -> HostPhysAddr {
        HostPhysAddr(self.0 + bytes)
    }
}

impl fmt::Display for HostPhysAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "hpa:{:#x}", self.0)
    }
}

/// Identifier of a host (compute node) sharing the pooled device.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct HostId(pub u16);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// Index of an allocation unit within a host's address space (the paper's
/// AU: the 2 GB minimum allocation granularity).
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct AuId(pub u32);

impl fmt::Display for AuId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "au{}", self.0)
    }
}

/// A host segment number: the fully qualified key of the segment mapping
/// table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Hsn {
    /// Owning host.
    pub host: HostId,
    /// Allocation unit within the host.
    pub au: AuId,
    /// Segment index within the AU.
    pub au_offset: u32,
}

impl Hsn {
    /// Bits of the packed key that hold the AU offset.
    pub(crate) const OFFSET_BITS: u32 = 20;
    /// Bits of the packed key that hold the AU id.
    pub(crate) const AU_BITS: u32 = 28;

    /// Packs into a single integer key (for cache indexing and the reverse
    /// mapping table). Layout: `host << 48 | au << 20 | au_offset` — AU
    /// offsets fit comfortably in 20 bits (a 2 GB AU of 2 MB segments has
    /// 1024 offsets). A wider field would alias another key;
    /// [`crate::DtlConfig::validate_geometry`] rejects devices that could
    /// produce one.
    #[inline]
    pub fn pack(self) -> u64 {
        debug_assert!(self.au_offset < 1 << Self::OFFSET_BITS, "AU offset wider than its field");
        debug_assert!(self.au.0 < 1 << Self::AU_BITS, "AU id wider than its field");
        (u64::from(self.host.0) << 48)
            | (u64::from(self.au.0) << Self::OFFSET_BITS)
            | u64::from(self.au_offset)
    }

    /// Inverse of [`Hsn::pack`].
    #[inline]
    pub(crate) fn unpack(key: u64) -> Hsn {
        Hsn {
            host: HostId((key >> 48) as u16),
            au: AuId((key >> Self::OFFSET_BITS) as u32 & ((1 << Self::AU_BITS) - 1)),
            au_offset: key as u32 & ((1 << Self::OFFSET_BITS) - 1),
        }
    }
}

impl fmt::Display for Hsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}/{}", self.host, self.au, self.au_offset)
    }
}

/// Handle to a live VM allocation on the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct VmHandle {
    /// The host the VM runs on.
    pub host: HostId,
    /// Device-assigned VM number, unique per host.
    pub vm: u32,
}

impl fmt::Display for VmHandle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/vm{}", self.host, self.vm)
    }
}

/// A DRAM segment number: index of a segment-sized slot in the device
/// physical address space under the Figure 6 mapping.
#[derive(
    Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize,
)]
pub struct Dsn(pub u64);

impl fmt::Display for Dsn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "dsn{}", self.0)
    }
}

/// The physical location of a DSN: which channel, rank, and within-rank
/// slot it occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SegmentLocation {
    /// Channel index.
    pub channel: u32,
    /// Rank within the channel.
    pub rank: u32,
    /// Segment slot within the (channel, rank).
    pub within: u64,
}

/// Converts between [`Dsn`] and [`SegmentLocation`] for a given geometry.
///
/// Under the Figure 6 mapping, consecutive DSNs rotate over channels, so
/// `dsn = (rank * segs_per_rank + within) * channels + channel`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SegmentGeometry {
    /// Number of channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks_per_channel: u32,
    /// Segment slots per rank.
    pub segs_per_rank: u64,
}

impl SegmentGeometry {
    /// Derives the segment geometry from a device geometry and segment size.
    pub fn new(channels: u32, ranks_per_channel: u32, rank_bytes: u64, segment_bytes: u64) -> Self {
        SegmentGeometry { channels, ranks_per_channel, segs_per_rank: rank_bytes / segment_bytes }
    }

    /// Total segments in the device.
    pub fn total_segments(&self) -> u64 {
        u64::from(self.channels) * u64::from(self.ranks_per_channel) * self.segs_per_rank
    }

    /// Decomposes a DSN.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the DSN is out of range.
    #[inline]
    pub fn location(&self, dsn: Dsn) -> SegmentLocation {
        debug_assert!(dsn.0 < self.total_segments(), "DSN out of range");
        let (linear, channel) = div_rem(dsn.0, u64::from(self.channels));
        let (rank, within) = div_rem(linear, self.segs_per_rank);
        SegmentLocation { channel: channel as u32, rank: rank as u32, within }
    }

    /// Recomposes a DSN.
    pub fn dsn(&self, loc: SegmentLocation) -> Dsn {
        Dsn((u64::from(loc.rank) * self.segs_per_rank + loc.within) * u64::from(self.channels)
            + u64::from(loc.channel))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn geo() -> SegmentGeometry {
        // 1 TB device: 4 channels, 8 ranks, 32 GiB ranks, 2 MiB segments.
        SegmentGeometry::new(4, 8, 32 << 30, 2 << 20)
    }

    #[test]
    fn totals() {
        let g = geo();
        assert_eq!(g.segs_per_rank, 16 * 1024);
        assert_eq!(g.total_segments(), (1u64 << 40) / (2 << 20));
    }

    #[test]
    fn dsn_location_round_trip() {
        let g = geo();
        for dsn in [0u64, 1, 3, 4, 12345, g.total_segments() - 1] {
            let loc = g.location(Dsn(dsn));
            assert_eq!(g.dsn(loc), Dsn(dsn));
        }
    }

    #[test]
    fn consecutive_dsns_rotate_channels() {
        let g = geo();
        for d in 0..8u64 {
            assert_eq!(g.location(Dsn(d)).channel, (d % 4) as u32);
            assert_eq!(g.location(Dsn(d)).rank, 0, "early DSNs stay in rank 0");
        }
    }

    #[test]
    fn rank_bits_are_most_significant() {
        let g = geo();
        let last = g.location(Dsn(g.total_segments() - 1));
        assert_eq!(last.rank, 7);
        let first_of_last_rank = g.dsn(SegmentLocation { channel: 0, rank: 7, within: 0 });
        assert_eq!(first_of_last_rank.0, 7 * g.segs_per_rank * 4);
    }

    #[test]
    fn div_rem_takes_each_of_its_three_paths() {
        // Shift, 32-bit and 64-bit division, at the edges between them.
        for (n, d) in [
            (0, 1),
            (u64::MAX, 1),
            (u64::MAX, 1 << 63),
            ((1 << 32) - 1, 24),
            (1 << 32, 24),
            ((1 << 32) - 1, (1 << 32) - 1),
            ((1 << 32) - 1, (1 << 32) + 1),
            (u64::MAX, 3),
            (5, u64::MAX),
        ] {
            assert_eq!(div_rem(n, d), (n / d, n % d), "{n} / {d}");
        }
    }

    #[test]
    #[should_panic(expected = "divide by zero")]
    fn div_rem_by_zero_panics_like_the_division() {
        let _ = div_rem(7, std::hint::black_box(0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// `div_rem` is `/` and `%` for every operand pair, whichever of
        /// its paths the divisor selects.
        #[test]
        fn div_rem_equals_plain_division(
            n in any::<u64>(),
            narrow in any::<bool>(),
            d in prop_oneof![
                (0u32..64).prop_map(|s| 1u64 << s),
                1u64..1 << 32,
                1u64..=u64::MAX,
            ],
        ) {
            let n = if narrow { n >> 32 } else { n };
            prop_assert_eq!(div_rem(n, d), (n / d, n % d));
        }

        /// `location` is the Figure 6 arithmetic, and `dsn` inverts it, for
        /// channel counts and rank sizes that are and are not powers of two
        /// and for DSNs on both sides of 2^32.
        #[test]
        fn location_equals_the_plain_split(
            channels in prop_oneof![Just(1u32), Just(2), Just(3), Just(4), Just(6), Just(8)],
            segs_per_rank in prop_oneof![Just(24u64), Just(6144), Just(4096)],
            pick in any::<u64>(),
            wide in any::<bool>(),
        ) {
            // Enough ranks for the device to pass 2^32 segments when `wide`.
            let ranks_per_channel = if wide { 1 << 30 } else { 8 };
            let g = SegmentGeometry { channels, ranks_per_channel, segs_per_rank };
            let dsn = pick % g.total_segments();
            let loc = g.location(Dsn(dsn));
            let linear = dsn / u64::from(channels);
            prop_assert_eq!(loc.channel, (dsn % u64::from(channels)) as u32);
            prop_assert_eq!(loc.within, linear % segs_per_rank);
            prop_assert_eq!(loc.rank, (linear / segs_per_rank) as u32);
            prop_assert_eq!(g.dsn(loc), Dsn(dsn));
        }
    }

    #[test]
    fn hsn_pack_is_injective_for_distinct_fields() {
        let a = Hsn { host: HostId(1), au: AuId(2), au_offset: 3 };
        let b = Hsn { host: HostId(1), au: AuId(2), au_offset: 4 };
        let c = Hsn { host: HostId(2), au: AuId(2), au_offset: 3 };
        assert_ne!(a.pack(), b.pack());
        assert_ne!(a.pack(), c.pack());
        assert_eq!(a.pack(), Hsn { ..a }.pack());
    }

    #[test]
    fn hsn_unpack_inverts_pack_at_the_field_limits() {
        for (host, au, au_offset) in
            [(0, 0, 0), (1, 2, 3), (u16::MAX, (1 << 28) - 1, (1 << 20) - 1)]
        {
            let h = Hsn { host: HostId(host), au: AuId(au), au_offset };
            assert_eq!(Hsn::unpack(h.pack()), h);
        }
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "AU offset wider than its field")]
    fn hsn_pack_rejects_a_wide_offset_in_debug() {
        let _ = Hsn { host: HostId(0), au: AuId(0), au_offset: 1 << 20 }.pack();
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "AU id wider than its field")]
    fn hsn_pack_rejects_a_wide_au_in_debug() {
        let _ = Hsn { host: HostId(0), au: AuId(1 << 28), au_offset: 0 }.pack();
    }

    #[test]
    fn hpa_segment_math() {
        let seg = 2u64 << 20;
        let a = HostPhysAddr::new(5 * seg + 1234);
        assert_eq!(a.segment_index(seg), 5);
        assert_eq!(a.segment_offset(seg), 1234);
    }

    #[test]
    fn display_formats() {
        assert_eq!(HostPhysAddr::new(0x10).to_string(), "hpa:0x10");
        assert_eq!(HostId(3).to_string(), "host3");
        assert_eq!(AuId(7).to_string(), "au7");
        assert_eq!(Dsn(9).to_string(), "dsn9");
        let h = Hsn { host: HostId(1), au: AuId(2), au_offset: 3 };
        assert_eq!(h.to_string(), "host1/au2/3");
    }
}
