//! Per-rank state: banks, rank-wide timing windows, power state, refresh
//! bookkeeping, and activity counters.

use std::collections::VecDeque;

use serde::{Deserialize, Serialize};

use crate::bank::Bank;
use crate::config::{Geometry, TimingParams};
use crate::error::DramError;
use crate::power::{EnergyAccount, PowerParams, PowerState};
use crate::time::Picos;

/// Per-rank activity counters, used by the DTL hotness profiler and by the
/// evaluation harness.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankCounters {
    /// ACT commands issued.
    pub activates: u64,
    /// Read bursts served.
    pub reads: u64,
    /// Write bursts served.
    pub writes: u64,
    /// Row-buffer hits among reads+writes.
    pub row_hits: u64,
    /// All-bank REF commands issued.
    pub refreshes: u64,
    /// Self-refresh exits.
    pub self_refresh_exits: u64,
    /// MPSM exits.
    pub mpsm_exits: u64,
}

/// One rank: a set of banks operated in tandem behind a chip select, the
/// power-state granularity of commodity DRAM.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Rank {
    banks: Vec<Bank>,
    banks_per_group: u32,
    /// Cached tRRD_S in picoseconds (used on the hot ACT path).
    trrd_s: Picos,
    /// Cached tRRD_L in picoseconds.
    trrd_l: Picos,
    /// Sliding window of the last four ACT issue times (tFAW).
    faw: VecDeque<Picos>,
    /// Earliest next ACT per bank group (set to `last ACT + tRRD_L` for the
    /// activated group).
    act_ready_bg: Vec<Picos>,
    /// Earliest next ACT anywhere in the rank (`last ACT + tRRD_S`).
    act_ready_any: Picos,
    /// Earliest next CAS per bank group (tCCD_L).
    cas_ready_bg: Vec<Picos>,
    /// Earliest next CAS anywhere in the rank (tCCD_S).
    cas_ready_any: Picos,
    /// Earliest read after a write to the same bank group (tWTR_L).
    rd_after_wr_bg: Vec<Picos>,
    /// Earliest read after a write anywhere in the rank (tWTR_S).
    rd_after_wr_any: Picos,
    /// Rank unavailable until this time (REF in progress, power-state
    /// entry/exit sequences).
    busy_until: Picos,
    /// Next refresh deadline.
    refresh_due: Picos,
    state: PowerState,
    energy: EnergyAccount,
    counters: RankCounters,
}

impl Rank {
    /// A standby rank with all banks closed, refresh due one tREFI from zero.
    pub fn new(geometry: &Geometry, timing: &TimingParams, power: PowerParams) -> Self {
        let n_banks = geometry.banks_per_rank() as usize;
        let n_groups = geometry.bank_groups as usize;
        Rank {
            banks: vec![Bank::new(); n_banks],
            banks_per_group: geometry.banks_per_group,
            trrd_s: timing.cycles(timing.trrd_s),
            trrd_l: timing.cycles(timing.trrd_l),
            faw: VecDeque::with_capacity(4),
            act_ready_bg: vec![Picos::ZERO; n_groups],
            act_ready_any: Picos::ZERO,
            cas_ready_bg: vec![Picos::ZERO; n_groups],
            cas_ready_any: Picos::ZERO,
            rd_after_wr_bg: vec![Picos::ZERO; n_groups],
            rd_after_wr_any: Picos::ZERO,
            busy_until: Picos::ZERO,
            refresh_due: timing.cycles(timing.trefi),
            state: PowerState::Standby,
            energy: EnergyAccount::new(power),
            counters: RankCounters::default(),
        }
    }

    /// Access a bank by flat index.
    #[inline]
    pub fn bank(&self, flat: u32) -> &Bank {
        &self.banks[flat as usize]
    }

    /// Mutable access to a bank by flat index.
    #[inline]
    pub fn bank_mut(&mut self, flat: u32) -> &mut Bank {
        &mut self.banks[flat as usize]
    }

    /// Flat bank index from (bank_group, bank).
    #[inline]
    pub fn flat_bank(&self, bank_group: u32, bank: u32) -> u32 {
        bank_group * self.banks_per_group + bank
    }

    /// Total number of banks in the rank.
    #[inline]
    pub fn bank_count(&self) -> u32 {
        self.banks.len() as u32
    }

    /// Current power state.
    #[inline]
    pub fn state(&self) -> PowerState {
        self.state
    }

    /// Time until which the rank cannot accept commands.
    #[inline]
    pub fn busy_until(&self) -> Picos {
        self.busy_until
    }

    /// Next refresh deadline.
    #[inline]
    pub fn refresh_due(&self) -> Picos {
        self.refresh_due
    }

    /// Activity counters.
    #[inline]
    pub fn counters(&self) -> &RankCounters {
        &self.counters
    }

    /// The rank's energy account (integrate with
    /// [`Rank::integrate_energy_to`] before reading).
    #[inline]
    pub fn energy(&self) -> &EnergyAccount {
        &self.energy
    }

    /// Whether any bank holds an open row.
    pub fn any_bank_open(&self) -> bool {
        self.banks.iter().any(|b| b.open_row().is_some())
    }

    /// Latest `pre_ready` over open banks (the time by which all banks could
    /// have been precharged), or `now` if all banks are already closed.
    pub fn all_banks_closed_by(&self, now: Picos, timing: &TimingParams) -> Picos {
        let mut t = now;
        for b in &self.banks {
            if b.open_row().is_some() {
                // PRE can issue at pre_ready; bank closed tRP later.
                t = t.max(b.pre_ready().max(now) + timing.cycles(timing.trp));
            }
        }
        t
    }

    /// Earliest time an ACT targeting `bank_group` may issue, considering
    /// tRRD_S/L, tFAW, and rank availability (not bank-local tRP).
    pub fn act_constraint(&self, bank_group: u32, timing: &TimingParams) -> Picos {
        let mut t = self.busy_until;
        t = t.max(self.act_ready_any);
        t = t.max(self.act_ready_bg[bank_group as usize]);
        if self.faw.len() == 4 {
            t = t.max(self.faw[0] + timing.cycles(timing.tfaw));
        }
        t
    }

    /// Earliest time a CAS (RD/WR) targeting `bank_group` may issue,
    /// considering tCCD_S/L, tWTR (reads only), and rank availability.
    pub fn cas_constraint(&self, bank_group: u32, is_read: bool, timing: &TimingParams) -> Picos {
        let _ = timing;
        let mut t = self.busy_until;
        t = t.max(self.cas_ready_any);
        t = t.max(self.cas_ready_bg[bank_group as usize]);
        if is_read {
            t = t.max(self.rd_after_wr_any);
            t = t.max(self.rd_after_wr_bg[bank_group as usize]);
        }
        t
    }

    /// Records an ACT issued at `at` to `bank_group`.
    pub fn note_activate(&mut self, at: Picos, bank_group: u32) {
        self.act_ready_any = at + self.trrd_s;
        self.act_ready_bg[bank_group as usize] = at + self.trrd_l;
        if self.faw.len() == 4 {
            self.faw.pop_front();
        }
        self.faw.push_back(at);
        self.counters.activates += 1;
        self.energy.record_activate();
    }

    /// Records a CAS issued at `at` to `bank_group`; `data_end` is when the
    /// burst finishes on the bus.
    pub fn note_cas(
        &mut self,
        at: Picos,
        bank_group: u32,
        is_read: bool,
        data_end: Picos,
        row_hit: bool,
        timing: &TimingParams,
    ) {
        self.cas_ready_any = self.cas_ready_any.max(at + timing.cycles(timing.tccd_s));
        let bg = bank_group as usize;
        self.cas_ready_bg[bg] = self.cas_ready_bg[bg].max(at + timing.cycles(timing.tccd_l));
        if is_read {
            self.counters.reads += 1;
            self.energy.record_read();
        } else {
            self.counters.writes += 1;
            self.energy.record_write();
            self.rd_after_wr_any =
                self.rd_after_wr_any.max(data_end + timing.cycles(timing.twtr_s));
            self.rd_after_wr_bg[bg] =
                self.rd_after_wr_bg[bg].max(data_end + timing.cycles(timing.twtr_l));
        }
        if row_hit {
            self.counters.row_hits += 1;
        }
    }

    /// Performs one all-bank REF starting at `start` (caller guarantees all
    /// banks closed and `start >= busy_until`).
    pub fn do_refresh(&mut self, start: Picos, timing: &TimingParams) {
        debug_assert!(!self.any_bank_open(), "REF with open banks");
        debug_assert!(start >= self.busy_until);
        self.busy_until = start + timing.cycles(timing.trfc);
        self.refresh_due += timing.cycles(timing.trefi);
        self.counters.refreshes += 1;
        self.energy.record_refresh();
    }

    /// Batch-processes `n` refreshes that happened while the channel was
    /// idle, without simulating each (the deadline bookkeeping and energy
    /// are identical; timing cannot matter because nothing was queued).
    pub fn do_idle_refreshes(&mut self, n: u64, timing: &TimingParams) {
        self.refresh_due += timing.cycles(timing.trefi) * n;
        self.counters.refreshes += n;
        self.energy.record_refreshes_bulk(n);
    }

    /// Requests a power-state transition at `now`.
    ///
    /// Legal transitions (the [`crate::transition_is_legal`] graph):
    /// * `Standby` → any low-power state (banks must be closed for
    ///   `SelfRefresh` / `Mpsm` / `PrechargePowerDown`);
    /// * any low-power state → `Standby` (pays the exit latency by making
    ///   the rank busy until the exit completes);
    /// * one rung down the data-retaining ladder (`ActivePowerDown` →
    ///   `PrechargePowerDown` → `SelfRefresh`), paying the shallower
    ///   state's exit (tXP) plus the deeper entry, precharging on the way.
    ///
    /// Returns the time at which the rank reaches the new state.
    ///
    /// # Errors
    ///
    /// [`DramError::IllegalPowerTransition`] for transitions off the graph
    /// (rung-skipping, promotions that bypass `Standby`, and anything into
    /// or out of `Mpsm` except via `Standby`).
    pub fn transition(
        &mut self,
        now: Picos,
        next: PowerState,
        timing: &TimingParams,
    ) -> Result<Picos, DramError> {
        if self.state == next {
            return Ok(now);
        }
        let start = now.max(self.busy_until);
        match (self.state, next) {
            (PowerState::Standby, PowerState::SelfRefresh)
            | (PowerState::Standby, PowerState::Mpsm)
            | (PowerState::Standby, PowerState::PrechargePowerDown) => {
                // Deep states need all banks precharged: the controller
                // issues the implied PREA first and waits it out.
                let start = if self.any_bank_open() {
                    let closed = self.all_banks_closed_by(start, timing);
                    for b in &mut self.banks {
                        b.force_close(closed);
                    }
                    closed
                } else {
                    start
                };
                let at = start + timing.cycles(timing.tcke);
                self.energy.transition(at, next);
                self.state = next;
                self.busy_until = at;
                Ok(at)
            }
            (PowerState::Standby, PowerState::ActivePowerDown) => {
                let at = start + timing.cycles(timing.tcke);
                self.energy.transition(at, next);
                self.state = next;
                self.busy_until = at;
                Ok(at)
            }
            (PowerState::ActivePowerDown, PowerState::PrechargePowerDown)
            | (PowerState::PrechargePowerDown, PowerState::SelfRefresh) => {
                // One rung down the ladder: implicit exit of the shallower
                // state (tXP), an implied PREA for any banks left open, then
                // the deeper entry (tCKE).
                let start = start + timing.cycles(timing.txp);
                let start = if self.any_bank_open() {
                    let closed = self.all_banks_closed_by(start, timing);
                    for b in &mut self.banks {
                        b.force_close(closed);
                    }
                    closed
                } else {
                    start
                };
                let at = start + timing.cycles(timing.tcke);
                self.energy.transition(at, next);
                self.state = next;
                self.busy_until = at;
                Ok(at)
            }
            (from, PowerState::Standby) => {
                let exit_cycles = match from {
                    PowerState::SelfRefresh => timing.txs,
                    PowerState::Mpsm => timing.txmpsm,
                    PowerState::ActivePowerDown | PowerState::PrechargePowerDown => timing.txp,
                    PowerState::Standby => unreachable!("handled above"),
                };
                let at = start + timing.cycles(exit_cycles);
                self.energy.transition(at, PowerState::Standby);
                self.state = PowerState::Standby;
                self.busy_until = at;
                match from {
                    PowerState::SelfRefresh => {
                        self.counters.self_refresh_exits += 1;
                        // Internal refresh kept the array alive; restart the
                        // external refresh clock.
                        self.refresh_due = at + timing.cycles(timing.trefi);
                    }
                    PowerState::Mpsm => {
                        self.counters.mpsm_exits += 1;
                        for b in &mut self.banks {
                            b.force_close(at);
                        }
                        self.refresh_due = at + timing.cycles(timing.trefi);
                    }
                    _ => {}
                }
                Ok(at)
            }
            (from, to) => {
                debug_assert!(
                    !crate::policy::transition_is_legal(from, to),
                    "state machine drifted from the transition graph: {from:?} -> {to:?}"
                );
                Err(DramError::IllegalPowerTransition {
                    reason: format!("cannot move {from:?} -> {to:?} without passing Standby"),
                })
            }
        }
    }

    /// Integrates background energy up to `now`.
    pub fn integrate_energy_to(&mut self, now: Picos) {
        self.energy.advance_to(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Geometry;
    use crate::power::PowerParams;

    fn rank() -> (Rank, TimingParams) {
        let t = TimingParams::ddr4_2933();
        (Rank::new(&Geometry::tiny(), &t, PowerParams::ddr4_128gb_dimm()), t)
    }

    #[test]
    fn faw_limits_fifth_activate() {
        let (mut r, t) = rank();
        let gap = t.cycles(t.trrd_l); // generous per-ACT spacing
        let mut at = Picos::ZERO;
        for i in 0..4 {
            // alternate bank groups so tRRD_S is the binding constraint
            let bg = i % 4;
            at = r.act_constraint(bg, &t).max(at);
            r.note_activate(at, bg);
            at += gap;
        }
        let fifth = r.act_constraint(0, &t);
        let first = Picos::ZERO;
        assert!(fifth >= first + t.cycles(t.tfaw), "tFAW must gate the 5th ACT");
    }

    #[test]
    fn trrd_separates_activates() {
        let (mut r, t) = rank();
        r.note_activate(Picos::ZERO, 0);
        assert_eq!(r.act_constraint(1, &t), t.cycles(t.trrd_s));
        assert_eq!(r.act_constraint(0, &t), t.cycles(t.trrd_l));
    }

    #[test]
    fn write_to_read_turnaround() {
        let (mut r, t) = rank();
        let data_end = Picos::from_ns(50);
        r.note_cas(Picos::ZERO, 0, false, data_end, false, &t);
        let rd0 = r.cas_constraint(0, true, &t);
        let rd1 = r.cas_constraint(1, true, &t);
        assert_eq!(rd0, data_end + t.cycles(t.twtr_l));
        assert_eq!(rd1, data_end + t.cycles(t.twtr_s));
        // Writes are not gated by tWTR.
        let wr = r.cas_constraint(1, false, &t);
        assert_eq!(wr, t.cycles(t.tccd_s));
    }

    #[test]
    fn refresh_advances_deadline_and_blocks_rank() {
        let (mut r, t) = rank();
        let due = r.refresh_due();
        r.do_refresh(due, &t);
        assert_eq!(r.busy_until(), due + t.cycles(t.trfc));
        assert_eq!(r.refresh_due(), due + t.cycles(t.trefi));
        assert_eq!(r.counters().refreshes, 1);
    }

    #[test]
    fn idle_refresh_batches() {
        let (mut r, t) = rank();
        let due = r.refresh_due();
        r.do_idle_refreshes(10, &t);
        assert_eq!(r.refresh_due(), due + t.cycles(t.trefi) * 10);
        assert_eq!(r.counters().refreshes, 10);
    }

    #[test]
    fn self_refresh_round_trip() {
        let (mut r, t) = rank();
        let entered = r.transition(Picos::from_us(1), PowerState::SelfRefresh, &t).unwrap();
        assert_eq!(r.state(), PowerState::SelfRefresh);
        let exited = r.transition(entered + Picos::from_ms(5), PowerState::Standby, &t).unwrap();
        assert_eq!(r.state(), PowerState::Standby);
        assert_eq!(exited, entered + Picos::from_ms(5) + t.cycles(t.txs));
        assert_eq!(r.counters().self_refresh_exits, 1);
        // Refresh clock restarted relative to the exit.
        assert_eq!(r.refresh_due(), exited + t.cycles(t.trefi));
    }

    #[test]
    fn mpsm_exit_pays_long_latency_and_closes_banks() {
        let (mut r, t) = rank();
        r.transition(Picos::ZERO, PowerState::Mpsm, &t).unwrap();
        let at = r.transition(Picos::from_ms(1), PowerState::Standby, &t).unwrap();
        assert!(at >= Picos::from_ms(1) + t.cycles(t.txmpsm));
        assert_eq!(r.counters().mpsm_exits, 1);
        assert!(!r.any_bank_open());
    }

    #[test]
    fn deep_entry_with_open_bank_precharges_first() {
        let (mut r, t) = rank();
        r.bank_mut(0).do_activate(Picos::ZERO, 3, &t);
        let now = Picos::from_us(1);
        let at = r.transition(now, PowerState::SelfRefresh, &t).unwrap();
        // The implied PREA costs at least tRP beyond a clean entry.
        assert!(at >= now + t.cycles(t.trp) + t.cycles(t.tcke), "entry at {at}");
        assert!(!r.any_bank_open());
        assert_eq!(r.state(), PowerState::SelfRefresh);
    }

    #[test]
    fn low_to_low_transition_rejected() {
        let (mut r, t) = rank();
        r.transition(Picos::ZERO, PowerState::SelfRefresh, &t).unwrap();
        assert!(r.transition(Picos::from_us(1), PowerState::Mpsm, &t).is_err());
    }

    #[test]
    fn ladder_demotion_walks_apd_ppd_sr() {
        let (mut r, t) = rank();
        let entered = r.transition(Picos::ZERO, PowerState::ActivePowerDown, &t).unwrap();
        assert_eq!(entered, t.cycles(t.tcke));
        // APD -> PPD pays the tXP exit plus the tCKE entry.
        let ppd = r.transition(Picos::from_us(1), PowerState::PrechargePowerDown, &t).unwrap();
        assert_eq!(ppd, Picos::from_us(1) + t.cycles(t.txp) + t.cycles(t.tcke));
        assert_eq!(r.state(), PowerState::PrechargePowerDown);
        // PPD -> SR, same shape.
        let sr = r.transition(Picos::from_us(2), PowerState::SelfRefresh, &t).unwrap();
        assert_eq!(sr, Picos::from_us(2) + t.cycles(t.txp) + t.cycles(t.tcke));
        assert_eq!(r.state(), PowerState::SelfRefresh);
        // Promotion down at the bottom only exits to Standby.
        assert!(r.transition(Picos::from_us(3), PowerState::PrechargePowerDown, &t).is_err());
    }

    #[test]
    fn apd_to_ppd_precharges_open_banks_on_the_way() {
        let (mut r, t) = rank();
        r.bank_mut(1).do_activate(Picos::ZERO, 5, &t);
        r.transition(Picos::from_ns(20), PowerState::ActivePowerDown, &t).unwrap();
        assert!(r.any_bank_open(), "APD keeps banks open");
        let at = r.transition(Picos::from_us(1), PowerState::PrechargePowerDown, &t).unwrap();
        assert!(!r.any_bank_open(), "PPD requires all banks precharged");
        assert!(at >= Picos::from_us(1) + t.cycles(t.txp) + t.cycles(t.trp) + t.cycles(t.tcke));
    }

    #[test]
    fn rung_skipping_rejected() {
        let (mut r, t) = rank();
        r.transition(Picos::ZERO, PowerState::ActivePowerDown, &t).unwrap();
        assert!(r.transition(Picos::from_us(1), PowerState::SelfRefresh, &t).is_err());
        assert!(r.transition(Picos::from_us(1), PowerState::Mpsm, &t).is_err());
    }

    #[test]
    fn transition_to_same_state_is_noop() {
        let (mut r, t) = rank();
        let at = r.transition(Picos::from_us(3), PowerState::Standby, &t).unwrap();
        assert_eq!(at, Picos::from_us(3));
    }

    #[test]
    fn all_banks_closed_by_accounts_for_open_banks() {
        let (mut r, t) = rank();
        let now = Picos::from_ns(10);
        assert_eq!(r.all_banks_closed_by(now, &t), now);
        r.bank_mut(2).do_activate(Picos::ZERO, 1, &t);
        let closed = r.all_banks_closed_by(now, &t);
        assert_eq!(closed, t.cycles(t.tras) + t.cycles(t.trp));
    }
}
