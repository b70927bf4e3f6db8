//! **Model validation** — loaded latency: the analytic M/D/1-shaped curve
//! of [`dtl_cxl::LoadedLatencyModel`] against the cycle-level simulator's
//! measured latency at increasing bandwidth. The curves must agree on the
//! idle latency, grow together, and the simulator must saturate near the
//! model's sustainable bandwidth.

use dtl_cxl::LoadedLatencyModel;
use dtl_dram::{
    AccessKind, AddressMapping, DramConfig, DramSystem, Geometry, PhysAddr, Picos, Priority,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// One utilization point.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct LoadPoint {
    /// Offered bandwidth, bytes/s (single channel).
    pub offered: f64,
    /// Measured mean latency from the cycle simulator, ns.
    pub measured_ns: f64,
    /// Model-predicted latency, ns (None past the sustainable point).
    pub predicted_ns: Option<f64>,
}

/// Full result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LoadedLatencyResult {
    /// The sweep, in increasing load.
    pub points: Vec<LoadPoint>,
    /// The model used.
    pub model: LoadedLatencyModel,
}

/// Sweeps offered load on a single channel with random (row-miss-heavy)
/// traffic and compares the measured mean latency against the model. One
/// worker unit per utilization point — every point builds its own
/// simulator and reseeds its own RNG from `seed`.
pub fn run(seed: u64, requests_per_point: u64, jobs: usize) -> LoadedLatencyResult {
    let geometry = Geometry { channels: 1, ranks_per_channel: 4, ..Geometry::cxl_1tb() };
    let model = LoadedLatencyModel::ddr4_2933_channel(Picos::ZERO);
    let points = crate::exec::run_units(jobs, vec![5u32, 15, 30, 45, 60, 75], |_, pct| {
        let offered = model.sustainable_bandwidth() * f64::from(pct) / 100.0;
        let mut sys = DramSystem::new(
            DramConfig { geometry, ..DramConfig::cxl_1tb_ddr4_2933() },
            AddressMapping::RankInterleaved,
        )
        .expect("valid geometry");
        let mut rng = SmallRng::seed_from_u64(seed);
        let gap_ps = 64.0 / offered * 1e12;
        let mut t = Picos::ZERO;
        let footprint = geometry.capacity_bytes();
        for _ in 0..requests_per_point {
            let u: f64 = rng.gen_range(1e-9..1.0f64);
            t += Picos::from_ps(((-u.ln()) * gap_ps).max(1.0) as u64);
            let addr = rng.gen_range(0..footprint / 64) * 64;
            sys.submit(PhysAddr::new(addr), AccessKind::Read, Priority::Foreground, t)
                .expect("in range");
            if sys.pending() > 512 {
                sys.advance_to(t);
            }
        }
        sys.run_until_idle(Picos::from_us(10));
        LoadPoint {
            offered,
            measured_ns: sys.foreground_stats().mean().as_ns_f64(),
            predicted_ns: model.latency_at(offered).map(|l| l.as_ns_f64()),
        }
    });
    LoadedLatencyResult { points, model }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simulator_and_model_agree_on_shape() {
        let r = run(3, 4_000, 1);
        // Monotone growth in both.
        for w in r.points.windows(2) {
            assert!(
                w[1].measured_ns >= w[0].measured_ns * 0.95,
                "measured must not fall with load: {:?}",
                w
            );
        }
        // At light load the measured latency sits in the idle band
        // (row-miss service, tens of ns).
        let light = &r.points[0];
        assert!(light.measured_ns > 20.0 && light.measured_ns < 120.0, "{light:?}");
        // At 75% load, queueing is visible in both model and measurement.
        let heavy = r.points.last().unwrap();
        assert!(heavy.measured_ns > light.measured_ns);
        assert!(heavy.predicted_ns.unwrap() > r.points[0].predicted_ns.unwrap());
    }
}
