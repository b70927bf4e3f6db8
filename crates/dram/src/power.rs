//! DRAM power states, the energy model, and per-rank energy accounting.
//!
//! The model follows the paper's methodology (§5.1, Table 2, Figure 11):
//!
//! * **Background power** depends only on the rank's power state and is
//!   integrated over state residency. The standby value *includes*
//!   distributed refresh, exactly as the paper's Figure 11(a) measurement
//!   does. The normalized state powers are Table 2 of the paper:
//!   standby 1.0, self-refresh 0.2, MPSM 0.068.
//! * **Active power** is event energy: each ACT/PRE pair, read burst, and
//!   write burst contributes a fixed energy, which makes active power scale
//!   linearly with bandwidth utilization (the paper's Figure 11(b)
//!   observation).

use serde::{Deserialize, Serialize};

use crate::error::DramError;
use crate::time::Picos;

/// Rank-level DRAM power state.
///
/// Transitions are commanded at rank granularity (the Chip Select group).
/// `Mpsm` (maximum power saving mode) does **not** retain data; all other
/// states do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PowerState {
    /// Normal operating state (standby/active); full background power.
    Standby,
    /// CKE-low power-down with at least one open bank.
    ActivePowerDown,
    /// CKE-low power-down with all banks precharged.
    PrechargePowerDown,
    /// Self-refresh: data retained by internal refresh, no external clock.
    SelfRefresh,
    /// Maximum power saving mode: lowest power, **no data retention**.
    Mpsm,
}

impl PowerState {
    /// Whether DRAM contents survive in this state.
    #[inline]
    pub fn retains_data(self) -> bool {
        !matches!(self, PowerState::Mpsm)
    }

    /// Whether the rank can accept regular commands without an exit sequence.
    #[inline]
    pub fn is_operational(self) -> bool {
        matches!(self, PowerState::Standby)
    }

    /// All states, for iteration in reports.
    pub const ALL: [PowerState; 5] = [
        PowerState::Standby,
        PowerState::ActivePowerDown,
        PowerState::PrechargePowerDown,
        PowerState::SelfRefresh,
        PowerState::Mpsm,
    ];

    fn index(self) -> usize {
        match self {
            PowerState::Standby => 0,
            PowerState::ActivePowerDown => 1,
            PowerState::PrechargePowerDown => 2,
            PowerState::SelfRefresh => 3,
            PowerState::Mpsm => 4,
        }
    }

    /// The `dtl-telemetry` mirror id of this state (same [`PowerState::ALL`]
    /// index order, so residency arrays line up across the two crates).
    #[inline]
    pub fn telemetry_id(self) -> dtl_telemetry::PowerStateId {
        match self {
            PowerState::Standby => dtl_telemetry::PowerStateId::Standby,
            PowerState::ActivePowerDown => dtl_telemetry::PowerStateId::ActivePowerDown,
            PowerState::PrechargePowerDown => dtl_telemetry::PowerStateId::PrechargePowerDown,
            PowerState::SelfRefresh => dtl_telemetry::PowerStateId::SelfRefresh,
            PowerState::Mpsm => dtl_telemetry::PowerStateId::Mpsm,
        }
    }
}

/// Parameters of the energy model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PowerParams {
    /// Background power of one rank in standby, in milliwatts
    /// (includes distributed refresh).
    pub standby_mw_per_rank: f64,
    /// Background power factors relative to standby, per state
    /// (Table 2 of the paper for self-refresh and MPSM).
    pub active_powerdown_factor: f64,
    /// See [`PowerParams::active_powerdown_factor`].
    pub precharge_powerdown_factor: f64,
    /// Self-refresh background factor (paper: 0.2).
    pub self_refresh_factor: f64,
    /// MPSM background factor (paper: 0.068).
    pub mpsm_factor: f64,
    /// Energy of one ACT + PRE pair, nanojoules.
    pub act_pre_nj: f64,
    /// Energy of one 64 B read burst, nanojoules.
    pub read_nj: f64,
    /// Energy of one 64 B write burst, nanojoules.
    pub write_nj: f64,
    /// Extra energy per explicit REF command, nanojoules. Zero by default:
    /// distributed refresh is folded into the standby background power, as
    /// in the paper's measurements.
    pub refresh_nj: f64,
}

impl PowerParams {
    /// Calibration for one rank of a 128 GB DDR4-2933 4-rank DIMM
    /// (32 GiB of 16 Gb x4 devices).
    pub fn ddr4_128gb_dimm() -> Self {
        PowerParams {
            standby_mw_per_rank: 1250.0,
            active_powerdown_factor: 0.55,
            precharge_powerdown_factor: 0.35,
            self_refresh_factor: 0.2,
            mpsm_factor: 0.068,
            act_pre_nj: 25.0,
            read_nj: 15.0,
            write_nj: 16.0,
            refresh_nj: 0.0,
        }
    }

    /// Background power (mW) of one rank in `state`.
    #[inline]
    pub fn background_mw(&self, state: PowerState) -> f64 {
        self.standby_mw_per_rank * self.factor(state)
    }

    /// The normalized background factor for `state` (standby = 1.0).
    #[inline]
    pub fn factor(&self, state: PowerState) -> f64 {
        match state {
            PowerState::Standby => 1.0,
            PowerState::ActivePowerDown => self.active_powerdown_factor,
            PowerState::PrechargePowerDown => self.precharge_powerdown_factor,
            PowerState::SelfRefresh => self.self_refresh_factor,
            PowerState::Mpsm => self.mpsm_factor,
        }
    }

    /// Validates that all factors are in `(0, 1]` and energies non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`DramError::InvalidConfig`] on out-of-range parameters.
    pub fn validate(&self) -> Result<(), DramError> {
        let factors = [
            ("active_powerdown_factor", self.active_powerdown_factor),
            ("precharge_powerdown_factor", self.precharge_powerdown_factor),
            ("self_refresh_factor", self.self_refresh_factor),
            ("mpsm_factor", self.mpsm_factor),
        ];
        for (name, v) in factors {
            if !(v > 0.0 && v <= 1.0) {
                return Err(DramError::InvalidConfig {
                    reason: format!("{name} = {v} must be in (0, 1]"),
                });
            }
        }
        if self.standby_mw_per_rank <= 0.0 {
            return Err(DramError::InvalidConfig {
                reason: "standby_mw_per_rank must be positive".into(),
            });
        }
        for (name, v) in [
            ("act_pre_nj", self.act_pre_nj),
            ("read_nj", self.read_nj),
            ("write_nj", self.write_nj),
            ("refresh_nj", self.refresh_nj),
        ] {
            if v < 0.0 {
                return Err(DramError::InvalidConfig {
                    reason: format!("{name} must be non-negative"),
                });
            }
        }
        Ok(())
    }
}

/// Accumulated energy of one rank, split by contributor.
///
/// All energies are in millijoules.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankEnergy {
    /// Background energy integrated over power-state residency.
    pub background_mj: f64,
    /// ACT/PRE energy.
    pub activate_mj: f64,
    /// Read burst energy.
    pub read_mj: f64,
    /// Write burst energy.
    pub write_mj: f64,
    /// Explicit REF command energy (zero under the default calibration).
    pub refresh_mj: f64,
}

impl RankEnergy {
    /// Total energy in millijoules.
    #[inline]
    pub fn total_mj(&self) -> f64 {
        self.background_mj + self.active_mj()
    }

    /// Active (event) energy: everything except background.
    #[inline]
    pub fn active_mj(&self) -> f64 {
        self.activate_mj + self.read_mj + self.write_mj + self.refresh_mj
    }

    /// Adds another account onto this one.
    pub fn accumulate(&mut self, other: &RankEnergy) {
        self.background_mj += other.background_mj;
        self.activate_mj += other.activate_mj;
        self.read_mj += other.read_mj;
        self.write_mj += other.write_mj;
        self.refresh_mj += other.refresh_mj;
    }
}

/// Per-rank energy accounting: state residency integration plus event energy.
///
/// # Examples
///
/// ```
/// use dtl_dram::{EnergyAccount, Picos, PowerParams, PowerState};
///
/// let mut acc = EnergyAccount::new(PowerParams::ddr4_128gb_dimm());
/// acc.transition(Picos::from_secs(1), PowerState::SelfRefresh);
/// acc.advance_to(Picos::from_secs(2));
/// // One second standby (1250 mW) + one second self-refresh (250 mW).
/// assert!((acc.energy().background_mj - 1500.0).abs() < 1e-6);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EnergyAccount {
    params: PowerParams,
    state: PowerState,
    state_since: Picos,
    residency_ps: [u64; 5],
    energy: RankEnergy,
}

impl EnergyAccount {
    /// Creates an account for a rank that is in `Standby` at time zero.
    pub fn new(params: PowerParams) -> Self {
        EnergyAccount {
            params,
            state: PowerState::Standby,
            state_since: Picos::ZERO,
            residency_ps: [0; 5],
            energy: RankEnergy::default(),
        }
    }

    /// Current power state.
    #[inline]
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// Integrates background energy up to `now` in the current state.
    ///
    /// Calls with `now` earlier than the last integration point are no-ops:
    /// sampling a power report "in the future" and then continuing to
    /// simulate earlier activity must not double-count.
    pub fn advance_to(&mut self, now: Picos) {
        if now <= self.state_since {
            return;
        }
        let dt = now.saturating_sub(self.state_since);
        self.residency_ps[self.state.index()] += dt.as_ps();
        // mW * ps = 1e-3 W * 1e-12 s = 1e-15 J = 1e-12 mJ.
        self.energy.background_mj +=
            self.params.background_mw(self.state) * dt.as_ps() as f64 * 1e-12;
        self.state_since = now;
    }

    /// Switches power state at `now`, integrating residency first.
    pub fn transition(&mut self, now: Picos, next: PowerState) {
        self.advance_to(now);
        self.state = next;
    }

    /// Records one ACT (+ implied PRE) pair.
    pub fn record_activate(&mut self) {
        self.energy.activate_mj += self.params.act_pre_nj * 1e-6;
    }

    /// Records one 64 B read burst.
    pub fn record_read(&mut self) {
        self.energy.read_mj += self.params.read_nj * 1e-6;
    }

    /// Records one 64 B write burst.
    pub fn record_write(&mut self) {
        self.energy.write_mj += self.params.write_nj * 1e-6;
    }

    /// Records one explicit REF command.
    pub fn record_refresh(&mut self) {
        self.energy.refresh_mj += self.params.refresh_nj * 1e-6;
    }

    /// Records `n` explicit REF commands at once.
    pub fn record_refreshes_bulk(&mut self, n: u64) {
        self.energy.refresh_mj += self.params.refresh_nj * n as f64 * 1e-6;
    }

    /// Records a fractional ACT/PRE pair (analytic models charging an
    /// average row-open rate per access).
    pub fn record_activate_fractional(&mut self, fraction: f64) {
        self.energy.activate_mj += self.params.act_pre_nj * fraction * 1e-6;
    }

    /// Records `n` read bursts at once.
    pub fn record_reads_bulk(&mut self, n: u64) {
        self.energy.read_mj += self.params.read_nj * n as f64 * 1e-6;
    }

    /// Records `n` write bursts at once.
    pub fn record_writes_bulk(&mut self, n: u64) {
        self.energy.write_mj += self.params.write_nj * n as f64 * 1e-6;
    }

    /// Records `n` ACT/PRE pairs at once.
    pub fn record_activates_bulk(&mut self, n: u64) {
        self.energy.activate_mj += self.params.act_pre_nj * n as f64 * 1e-6;
    }

    /// Residency spent in `state`, as integrated so far.
    pub fn residency(&self, state: PowerState) -> Picos {
        Picos::from_ps(self.residency_ps[state.index()])
    }

    /// Time the current state was entered (the last integration point).
    #[inline]
    pub fn state_since(&self) -> Picos {
        self.state_since
    }

    /// Residency per state as if integrated to `now`, *without* mutating the
    /// account, indexed in [`PowerState::ALL`] order. This is the single
    /// source snapshots and reports derive per-rank residency from.
    pub fn residency_to(&self, now: Picos) -> [Picos; 5] {
        let mut out = [Picos::ZERO; 5];
        for (o, ps) in out.iter_mut().zip(self.residency_ps) {
            *o = Picos::from_ps(ps);
        }
        if now > self.state_since {
            let i = self.state.index();
            out[i] += now.saturating_sub(self.state_since);
        }
        out
    }

    /// The energy account integrated so far (call [`EnergyAccount::advance_to`]
    /// first to include time up to "now").
    pub fn energy(&self) -> RankEnergy {
        self.energy
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_factors_are_the_default() {
        let p = PowerParams::ddr4_128gb_dimm();
        assert_eq!(p.factor(PowerState::Standby), 1.0);
        assert_eq!(p.factor(PowerState::SelfRefresh), 0.2);
        assert_eq!(p.factor(PowerState::Mpsm), 0.068);
        p.validate().unwrap();
    }

    #[test]
    fn mpsm_loses_data_others_do_not() {
        for s in PowerState::ALL {
            assert_eq!(s.retains_data(), s != PowerState::Mpsm);
        }
        assert!(PowerState::Standby.is_operational());
        assert!(!PowerState::SelfRefresh.is_operational());
    }

    #[test]
    fn background_integration_matches_hand_math() {
        let p = PowerParams::ddr4_128gb_dimm();
        let mut acc = EnergyAccount::new(p);
        // One second of standby at 1250 mW = 1250 mJ.
        acc.advance_to(Picos::from_secs(1));
        assert!((acc.energy().background_mj - 1250.0).abs() < 1e-6);
        // Then one second of self-refresh = 250 mJ more.
        acc.transition(Picos::from_secs(1), PowerState::SelfRefresh);
        acc.advance_to(Picos::from_secs(2));
        assert!((acc.energy().background_mj - 1500.0).abs() < 1e-6);
        assert_eq!(acc.residency(PowerState::Standby), Picos::from_secs(1));
        assert_eq!(acc.residency(PowerState::SelfRefresh), Picos::from_secs(1));
    }

    #[test]
    fn event_energy_accumulates() {
        let p = PowerParams::ddr4_128gb_dimm();
        let mut acc = EnergyAccount::new(p);
        for _ in 0..1000 {
            acc.record_activate();
            acc.record_read();
            acc.record_write();
        }
        let e = acc.energy();
        assert!((e.activate_mj - 25.0 * 1e-3).abs() < 1e-9);
        assert!((e.read_mj - 15.0 * 1e-3).abs() < 1e-9);
        assert!((e.write_mj - 16.0 * 1e-3).abs() < 1e-9);
        assert!(e.total_mj() > 0.0);
        assert_eq!(e.total_mj(), e.background_mj + e.active_mj());
    }

    #[test]
    fn residency_to_matches_advance_without_mutating() {
        let p = PowerParams::ddr4_128gb_dimm();
        let mut acc = EnergyAccount::new(p);
        acc.transition(Picos::from_us(3), PowerState::SelfRefresh);
        // Non-mutating projection to t=5us...
        let projected = acc.residency_to(Picos::from_us(5));
        assert_eq!(projected[0], Picos::from_us(3));
        assert_eq!(projected[3], Picos::from_us(2));
        // ...must equal what integration reports, and must not have advanced
        // the account itself.
        assert_eq!(acc.residency(PowerState::SelfRefresh), Picos::ZERO);
        acc.advance_to(Picos::from_us(5));
        assert_eq!(acc.residency(PowerState::SelfRefresh), Picos::from_us(2));
        // Projection earlier than the integration point adds nothing.
        let stale = acc.residency_to(Picos::from_us(4));
        assert_eq!(stale[3], Picos::from_us(2));
    }

    #[test]
    fn telemetry_ids_share_index_order() {
        for (i, s) in PowerState::ALL.iter().enumerate() {
            assert_eq!(s.telemetry_id().index(), i);
            assert_eq!(s.telemetry_id() as usize, i);
        }
    }

    #[test]
    fn invalid_params_rejected() {
        let mut p = PowerParams::ddr4_128gb_dimm();
        p.mpsm_factor = 0.0;
        assert!(p.validate().is_err());
        let mut p = PowerParams::ddr4_128gb_dimm();
        p.read_nj = -1.0;
        assert!(p.validate().is_err());
        let mut p = PowerParams::ddr4_128gb_dimm();
        p.standby_mw_per_rank = 0.0;
        assert!(p.validate().is_err());
    }

    #[test]
    fn accumulate_sums_componentwise() {
        let mut a = RankEnergy { background_mj: 1.0, activate_mj: 2.0, ..Default::default() };
        let b = RankEnergy { background_mj: 0.5, read_mj: 1.5, ..Default::default() };
        a.accumulate(&b);
        assert!((a.background_mj - 1.5).abs() < 1e-12);
        assert!((a.read_mj - 1.5).abs() < 1e-12);
        assert!((a.activate_mj - 2.0).abs() < 1e-12);
    }
}
