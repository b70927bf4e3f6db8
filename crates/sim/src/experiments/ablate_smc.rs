//! **Ablation** — segment mapping cache sizing (the paper picks a 64-entry
//! L1 and a 1024-entry 4-way L2; Table 3/5). Sweeps both levels and
//! reports measured miss ratios on the mixed trace plus the resulting AMAT
//! adder.

use serde::{Deserialize, Serialize};

use dtl_core::{AuId, Dsn, HostId, Hsn, SegmentMappingCache};
use dtl_cxl::AmatModel;
use dtl_dram::Picos;
use dtl_trace::{Mixer, WorkloadKind};

/// One (L1, L2) sizing cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmcRow {
    /// L1 entries.
    pub l1_entries: usize,
    /// L2 entries (4-way).
    pub l2_entries: usize,
    /// Measured L1 miss ratio.
    pub l1_miss: f64,
    /// Measured L2 miss ratio.
    pub l2_miss: f64,
    /// Resulting translation overhead, ns.
    pub translation_ns: f64,
}

/// Full result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmcResult {
    /// Rows in (L1, L2) sweep order.
    pub rows: Vec<SmcRow>,
}

/// The swept L1 sizes.
pub const L1_SIZES: [usize; 4] = [16, 32, 64, 128];
/// The swept L2 sizes.
pub const L2_SIZES: [usize; 3] = [256, 1024, 4096];

/// Runs the sweep with one worker unit per (L1, L2) sizing. The mixed
/// post-cache trace is generated **once** and shared read-only by every
/// unit, so all sizings replay the identical access stream regardless of
/// worker count.
pub fn run(seed: u64, accesses: usize, jobs: usize) -> SmcResult {
    // One mixed post-cache trace reused across all SMC sizings.
    let specs: Vec<_> = WorkloadKind::TRACED.iter().map(|k| k.spec().scaled(16)).collect();
    let mut mix = Mixer::new(&specs, seed);
    let seg = dtl_trace::SEGMENT_BYTES;
    let trace: Vec<u32> = (0..accesses).map(|_| (mix.next_record().addr / seg) as u32).collect();
    let mut cells = Vec::new();
    for l1 in L1_SIZES {
        for l2 in L2_SIZES {
            cells.push((l1, l2));
        }
    }
    let trace_ref = &trace;
    let rows = crate::exec::run_units(jobs, cells, |_, (l1, l2)| {
        let mut smc = SegmentMappingCache::new(l1, l2, 4);
        for s in trace_ref {
            let hsn = Hsn { host: HostId(0), au: AuId(s / 1024), au_offset: s % 1024 };
            let (_, hit) = smc.lookup(hsn);
            if hit.is_none() {
                smc.fill(hsn, Dsn(u64::from(*s)));
            }
        }
        let st = smc.stats();
        let mut amat = AmatModel::paper(Picos::from_ns(121));
        amat.l1_miss_ratio = st.l1_miss_ratio();
        amat.l2_miss_ratio = st.l2_miss_ratio();
        SmcRow {
            l1_entries: l1,
            l2_entries: l2,
            l1_miss: st.l1_miss_ratio(),
            l2_miss: st.l2_miss_ratio(),
            translation_ns: amat.translation_overhead().as_ns_f64(),
        }
    });
    SmcResult { rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bigger_caches_translate_faster() {
        let r = run(3, 40_000, 2);
        assert_eq!(r.rows.len(), L1_SIZES.len() * L2_SIZES.len());
        let smallest = &r.rows[0];
        let biggest = r.rows.last().unwrap();
        assert!(
            biggest.translation_ns <= smallest.translation_ns,
            "largest sizing must not translate slower: {biggest:?} vs {smallest:?}"
        );
        for row in &r.rows {
            assert!(row.l1_miss > 0.0 && row.l1_miss <= 1.0);
        }
    }
}
