//! The DTL device façade: a CXL memory device with the DRAM Translation
//! Layer inside its controller.
//!
//! `DtlDevice` composes every mechanism of the paper over a pluggable
//! [`MemoryBackend`]:
//!
//! * HPA→DPA translation through the two-level segment mapping cache and
//!   the three-level table walk (§3.2);
//! * balanced, rank-packing segment allocation at VM granularity (§4.3);
//! * rank-level power-down at VM deallocation (§3.3);
//! * hotness-aware self-refresh (§3.4);
//! * atomic background migration (§4.2).

use std::sync::{Arc, Mutex};

use dtl_dram::{
    AccessKind, Picos, PowerEvent, PowerEventCause, PowerPolicyKind, PowerReport, PowerState,
    Priority,
};
use dtl_telemetry::{Histogram, MetricsRegistry, Telemetry};
use serde::{Deserialize, Serialize};

use crate::addr::{AuId, Dsn, HostId, HostPhysAddr, Hsn, SegmentGeometry, VmHandle};
use crate::admission::{Admission, AdmissionCtl, HostSnapshot, VmAllocation};
use crate::alloc::SegmentAllocator;
use crate::backend::MemoryBackend;
use crate::config::DtlConfig;
use crate::error::DtlError;
use crate::health::{
    HealthParams, HealthStats, HealthTracker, RankErrorRecord, RankHealth, UncorrectableReport,
};
use crate::hotness::{HotnessEngine, HotnessParams, HotnessRole, HotnessStats};
use crate::migrate::{
    MigrationEngine, MigrationInterrupt, MigrationJob, MigrationKind, MigrationStats, WriteRouting,
};
use crate::origin::{JobOrigin, JobOrigins};
use crate::power::{PowerCtl, PowerDownStats, RankPdState, RankPower};
use crate::smc::{SmcOutcome, SmcStats};
use crate::sweep::CleanSweep;
use crate::tables::MappingTables;
use crate::tap::{CommandTap, DeviceCommand};
use crate::translate::Translator;

/// Result of one translated access.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct AccessOutcome {
    /// The device segment the access was routed to.
    pub dsn: Dsn,
    /// Where the translation was satisfied.
    pub smc: SmcOutcome,
    /// Latency added by the DTL translation path.
    pub translation_latency: Picos,
    /// Estimated completion time at the device (excludes the CXL link).
    pub completion_estimate: Picos,
}

/// Aggregate device statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeviceStats {
    /// Translated accesses served.
    pub accesses: u64,
    /// Of which writes.
    pub writes: u64,
    /// Writes rerouted by the completion-bit window.
    pub rerouted_writes: u64,
    /// Writes that aborted an in-flight migration.
    pub aborting_writes: u64,
    /// VMs allocated.
    pub vms_allocated: u64,
    /// VMs deallocated.
    pub vms_deallocated: u64,
    /// Rank wake-ups forced by allocation pressure.
    pub capacity_wakes: u64,
    /// Injected migration interruptions that hit an in-flight job.
    pub migration_interrupts: u64,
    /// Rank retirements triggered automatically by error health.
    pub auto_retirements: u64,
}

/// Operational snapshot of one rank.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RankSnapshot {
    /// Channel index.
    pub channel: u32,
    /// Rank index within the channel.
    pub rank: u32,
    /// DRAM power state at the backend.
    pub power: PowerState,
    /// Power-down lifecycle state.
    pub lifecycle: RankPdState,
    /// Hotness role.
    pub hotness: HotnessRole,
    /// Error-health lifecycle.
    pub health: RankHealth,
    /// Correctable ECC errors recorded on the rank.
    pub correctable_errors: u64,
    /// Uncorrectable ECC errors recorded on the rank.
    pub uncorrectable_errors: u64,
    /// Live (allocated) segments.
    pub allocated_segments: u64,
    /// Free segments.
    pub free_segments: u64,
    /// Cumulative power-state residency up to the snapshot time, in
    /// [`PowerState::ALL`] order (Standby, APD, PPD, SelfRefresh, MPSM) —
    /// enough to recompute the Table 2 power breakdown from snapshots
    /// alone.
    pub residency: [Picos; 5],
}

/// A serializable operational snapshot of the whole device — what a
/// management controller would export for monitoring.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceSnapshot {
    /// Per-rank state, channel-major.
    pub ranks: Vec<RankSnapshot>,
    /// Per-host occupancy.
    pub hosts: Vec<HostSnapshot>,
    /// Mapped (live) segments device-wide.
    pub mapped_segments: u64,
    /// Migration jobs queued or moving.
    pub migrations_pending: usize,
    /// Aggregate statistics.
    pub stats: DeviceStats,
    /// Aggregate error-health statistics.
    pub errors: HealthStats,
}

/// The DTL device: translation, allocation, power management and migration
/// over a DRAM back end.
///
/// # Examples
///
/// ```
/// use dtl_core::{AnalyticBackend, DtlConfig, DtlDevice, HostId, HostPhysAddr};
/// use dtl_dram::{AccessKind, Picos, PowerParams};
///
/// let cfg = DtlConfig::tiny();
/// let mut dev = DtlDevice::with_analytic_geometry(cfg, 2, 4, 16);
/// dev.register_host(HostId(0))?;
/// let vm = dev.alloc_vm(HostId(0), cfg.au_bytes, Picos::ZERO)?;
/// let base = vm.hpa_base(0, cfg.au_bytes);
/// dev.access(HostId(0), base, AccessKind::Read, Picos::from_us(1))?;
/// # Ok::<(), dtl_core::DtlError>(())
/// ```
#[derive(Debug)]
pub struct DtlDevice<B: MemoryBackend> {
    config: DtlConfig,
    geo: SegmentGeometry,
    backend: B,
    translator: Translator,
    tables: MappingTables,
    alloc: SegmentAllocator,
    migrate: MigrationEngine,
    /// Every rank's lifecycle, power state and idle clock: written through
    /// [`DtlDevice::power`] only.
    power: RankPower,
    /// Error history per rank; faults enter through `health.rs`'s entries of
    /// [`DtlDevice::power`].
    health: HealthTracker,
    hotness: HotnessEngine,
    hotness_enabled: bool,
    /// Hosts, VMs and AU ids: written through [`DtlDevice::admission`] only.
    admission: Admission,
    job_origin: JobOrigins,
    stats: DeviceStats,
    telemetry: Telemetry,
    /// Resolved once at [`DtlDevice::set_telemetry`] time, never on the
    /// access path.
    translation_hist: Option<Arc<Mutex<Histogram>>>,
    /// Age of completed migrations (finish minus enqueue): how stale the
    /// drain/consolidation backlog ran.
    slo_drain_age: Histogram,
    /// Command-stream tap for external checkers (off by default).
    tap: CommandTap,
    /// What [`DtlDevice::check_invariants`] last proved clean.
    clean_sweep: CleanSweep,
}

impl DtlDevice<crate::backend::AnalyticBackend> {
    /// Convenience constructor: an analytic backend with the given segment
    /// geometry and default DDR4 power parameters.
    pub fn with_analytic_geometry(
        config: DtlConfig,
        channels: u32,
        ranks_per_channel: u32,
        segs_per_rank: u64,
    ) -> Self {
        let geo = SegmentGeometry { channels, ranks_per_channel, segs_per_rank };
        let backend = crate::backend::AnalyticBackend::new(
            geo,
            config.segment_bytes,
            dtl_dram::PowerParams::ddr4_128gb_dimm(),
        );
        DtlDevice::new(config, backend)
    }
}

impl<B: MemoryBackend> DtlDevice<B> {
    /// Builds a device over `backend`. The backend's geometry defines the
    /// segment space.
    ///
    /// # Panics
    ///
    /// Panics with [`DtlConfig::validate_geometry`]'s message if the segment
    /// and AU sizes do not fit that geometry: the allocator's channel
    /// interleave, the packed segment key and the per-segment tables all
    /// rely on it.
    pub fn new(config: DtlConfig, backend: B) -> Self {
        let geo = backend.geometry();
        if let Err(e) = config.validate_geometry(&geo) {
            panic!("{e}");
        }
        let hotness_params = HotnessParams {
            window: config.profile_window,
            threshold: config.profile_threshold,
            tsp_max_steps: (config.tsp_timeout.as_ps() / config.controller_cycle().as_ps().max(1))
                as u32,
        };
        DtlDevice {
            translator: Translator::new(&config),
            tables: MappingTables::new(config.segments_per_au(), geo),
            alloc: SegmentAllocator::new(geo),
            migrate: MigrationEngine::new(geo, config.segment_bytes, config.migration_retry_limit),
            power: RankPower::new(geo, config.power_policy, config.profile_threshold),
            health: HealthTracker::new(geo, HealthParams::default()),
            hotness: HotnessEngine::new(geo, hotness_params),
            hotness_enabled: true,
            admission: Admission::default(),
            job_origin: JobOrigins::default(),
            stats: DeviceStats::default(),
            telemetry: Telemetry::disabled(),
            translation_hist: None,
            slo_drain_age: Histogram::default(),
            tap: CommandTap::default(),
            clean_sweep: CleanSweep::default(),
            config,
            geo,
            backend,
        }
    }

    /// The admission module at work on this device's parts, which include
    /// the whole power view.
    pub(crate) fn admission(&mut self) -> AdmissionCtl<'_, B> {
        AdmissionCtl {
            state: &mut self.admission,
            config: &self.config,
            translator: &mut self.translator,
            tap: &mut self.tap,
            power: PowerCtl {
                state: &mut self.power,
                backend: &mut self.backend,
                alloc: &mut self.alloc,
                migrate: &mut self.migrate,
                hotness: &mut self.hotness,
                origins: &mut self.job_origin,
                stats: &mut self.stats,
                tables: &mut self.tables,
                health: &mut self.health,
                telemetry: &self.telemetry,
            },
        }
    }

    /// The rank-power module at work on this device's parts.
    pub(crate) fn power(&mut self) -> PowerCtl<'_, B> {
        self.admission().power
    }

    /// Turns the command-stream tap on or off (off by default). While on,
    /// every committed mapping change and power transition is buffered for
    /// [`DtlDevice::drain_commands`]; external checkers replay the stream
    /// into a reference model.
    pub fn set_command_tap(&mut self, on: bool) {
        self.tap.set_enabled(on);
    }

    /// Takes every buffered [`DeviceCommand`] in commit order, flushing
    /// pending backend power events into the stream first.
    pub fn drain_commands(&mut self) -> Vec<DeviceCommand> {
        self.process_events();
        self.tap.drain()
    }

    /// Side-effect-free translation probe for external checkers: walks the
    /// mapping tables directly, bypassing (and not perturbing) the SMC and
    /// access statistics.
    pub fn probe_translation(&self, host: HostId, hpa: HostPhysAddr) -> Option<Dsn> {
        let (hsn, _offset) = self.translator.hsn_of(host, hpa);
        self.tables.translate(hsn)
    }

    /// Every mapped (DSN, HSN) pair in ascending DSN order — the checker's
    /// view of the reverse table.
    pub fn mapped_entries(&self) -> Vec<(Dsn, Hsn)> {
        self.tables.iter_mapped().collect()
    }

    /// Copy migrations queued or in flight. Each holds one allocated but
    /// still-unmapped destination reservation, so external residency
    /// accounting must allow `allocated == mapped + pending copies`.
    pub fn pending_copy_reservations(&self) -> u64 {
        self.migrate.pending_copies()
    }

    /// Deliberately corrupts one forward-mapping entry without updating
    /// the reverse table — a mutation hook for checker self-tests (the
    /// checker must catch the divergence). Returns the corrupted HSN.
    #[doc(hidden)]
    pub fn corrupt_mapping_for_test(&mut self) -> Option<Hsn> {
        let hsn = self.tables.corrupt_first_forward_slot()?;
        self.translator.invalidate(hsn);
        Some(hsn)
    }

    /// Forges a rung-skipping power transition for rank (0, 0) into the
    /// command stream without touching the backend — a mutation hook for
    /// checker self-tests (the checker's legal-transition check must catch
    /// it). Bridges the ledger to active power-down first so only the
    /// legality check — not stream coherence — can flag the forgery.
    #[doc(hidden)]
    pub fn corrupt_power_log_for_test(&mut self, now: Picos) {
        self.process_events();
        let state = self.backend.rank_state(0, 0);
        let mut forge = |from, to| {
            self.tap.record(DeviceCommand::PowerTransition {
                channel: 0,
                rank: 0,
                from,
                to,
                cause: PowerEventCause::Explicit,
                at: now,
            });
        };
        if state != PowerState::Standby {
            forge(state, PowerState::Standby);
        }
        forge(PowerState::Standby, PowerState::ActivePowerDown);
        forge(PowerState::ActivePowerDown, PowerState::SelfRefresh);
    }

    /// Installs a telemetry handle on the device and every engine it owns
    /// (backend, migration, hotness, health). If the handle carries a
    /// metrics registry, the translation-latency histogram is resolved here
    /// so the access path only pays an `Option` check.
    pub fn set_telemetry(&mut self, telemetry: Telemetry) {
        self.backend.set_telemetry(telemetry.clone());
        self.migrate.set_telemetry(telemetry.clone());
        self.hotness.set_telemetry(telemetry.clone());
        self.health.set_telemetry(telemetry.clone());
        self.translation_hist =
            telemetry.metrics().map(|m| m.histogram("dtl.translation.latency_ps"));
        self.telemetry = telemetry;
    }

    /// The DTL configuration.
    pub fn config(&self) -> &DtlConfig {
        &self.config
    }

    /// The segment geometry.
    pub fn geometry(&self) -> SegmentGeometry {
        self.geo
    }

    /// The backend (power reports, completions).
    pub fn backend(&self) -> &B {
        &self.backend
    }

    /// Mutable backend access.
    pub fn backend_mut(&mut self) -> &mut B {
        &mut self.backend
    }

    /// Enables/disables hotness-aware self-refresh (on by default).
    pub fn set_hotness_enabled(&mut self, on: bool) {
        self.hotness_enabled = on;
    }

    /// Enables/disables rank-level power-down (on by default).
    pub fn set_powerdown_enabled(&mut self, on: bool) {
        self.power.set_enabled(on);
    }

    /// The active rank power-management policy.
    pub fn power_policy(&self) -> PowerPolicyKind {
        self.power.policy_kind()
    }

    /// Ladder demotions committed by the policy pump so far (always zero
    /// under [`PowerPolicyKind::FixedThreshold`]).
    pub fn policy_demotions(&self) -> u64 {
        self.power.demotions()
    }

    /// Switches the rank power-management policy. Ranks already demoted
    /// stay where they are — the backend auto-exits any low-power state on
    /// the next access, so a switch never strands a rank. The new policy
    /// starts from a cold idle history.
    pub fn set_power_policy(&mut self, kind: PowerPolicyKind) {
        self.power.set_policy(kind, self.config.profile_threshold);
        self.config.power_policy = kind;
    }

    /// Asks the power policy to postpone the next refresh of `(channel,
    /// rank)` — the refresh-aware policy's schedulable-maintenance lever;
    /// other policies decline. Returns whether the postponement was
    /// granted.
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] for out-of-range rank coordinates.
    pub fn postpone_refresh(
        &mut self,
        channel: u32,
        rank: u32,
        now: Picos,
    ) -> Result<bool, DtlError> {
        self.health.check_rank(channel, Some(rank))?;
        Ok(self.power.postpone_refresh(channel, rank, now))
    }

    /// Records external (bulk) traffic against a rank's idle clock so the
    /// power policy does not demote a rank that an orchestrator is still
    /// streaming into. No-op apart from bookkeeping; the traffic itself is
    /// charged by the backend.
    pub fn note_rank_traffic(&mut self, channel: u32, rank: u32, now: Picos) {
        if self.health.check_rank(channel, Some(rank)).is_ok() {
            self.power.note_access(channel, rank, now);
        }
    }

    /// Plans rank-group power-downs right now, without waiting for a
    /// deallocation to trigger them. The engine normally runs on the
    /// dealloc path (the only event that can empty a rank group), which
    /// means a device that has never served an allocation keeps every
    /// rank in standby; an external orchestrator that idles whole
    /// devices calls this to park their rank groups immediately. No-op
    /// while power-down is disabled.
    ///
    /// # Errors
    ///
    /// Propagates backend state-transition failures.
    pub fn request_power_down(&mut self, now: Picos) -> Result<(), DtlError> {
        self.power().plan_power_down(now)
    }

    /// Device statistics.
    pub fn stats(&self) -> DeviceStats {
        self.stats
    }

    /// Segment mapping cache statistics.
    pub fn smc_stats(&self) -> SmcStats {
        self.translator.stats()
    }

    /// Migration statistics.
    pub fn migration_stats(&self) -> MigrationStats {
        self.migrate.stats()
    }

    /// Migration jobs queued or currently moving data.
    pub fn migrations_pending(&self) -> usize {
        self.migrate.queued() + self.migrate.in_flight()
    }

    /// VM admission latency histogram (table carving + capacity wakes),
    /// picoseconds. One sample per successful [`DtlDevice::alloc_vm`] or
    /// [`DtlDevice::grow_vm`].
    pub fn admission_histogram(&self) -> &Histogram {
        &self.admission.slo
    }

    /// Migration backlog-age histogram: completion minus enqueue of every
    /// finished migration, picoseconds.
    pub fn drain_age_histogram(&self) -> &Histogram {
        &self.slo_drain_age
    }

    /// Latency of the most recent successful [`DtlDevice::alloc_vm`] or
    /// [`DtlDevice::grow_vm`] (zero before the first), for callers
    /// composing device admission into an end-to-end figure.
    pub fn last_admission_latency(&self) -> Picos {
        self.admission.last_latency
    }

    /// Deepest the migration backlog (queued + in flight) ever got.
    pub fn migration_backlog_high_water(&self) -> u64 {
        self.migrate.backlog_high_water()
    }

    /// Power-down statistics.
    pub fn powerdown_stats(&self) -> PowerDownStats {
        self.power.stats()
    }

    /// Hotness statistics.
    pub fn hotness_stats(&self) -> HotnessStats {
        self.hotness.stats()
    }

    /// Active (allocation-serving) rank count of a channel.
    pub fn active_ranks(&self, channel: u32) -> u32 {
        self.power.active_ranks(channel)
    }

    /// Registers a host.
    ///
    /// # Errors
    ///
    /// [`DtlError::TooManyHosts`] past the configured maximum.
    pub fn register_host(&mut self, host: HostId) -> Result<(), DtlError> {
        self.admission().register_host(host)
    }

    /// Allocates `bytes` (rounded up to whole AUs) for a new VM, waking
    /// powered-down rank groups if the active ranks lack capacity.
    ///
    /// # Errors
    ///
    /// * [`DtlError::UnknownHost`] for unregistered hosts;
    /// * [`DtlError::QuotaExceeded`] past the host's quota;
    /// * [`DtlError::OutOfCapacity`] when the whole device is full.
    pub fn alloc_vm(
        &mut self,
        host: HostId,
        bytes: u64,
        now: Picos,
    ) -> Result<VmAllocation, DtlError> {
        self.admission().alloc_vm(host, bytes, now)
    }

    /// Sets (or clears) a host's capacity quota in allocation units. An
    /// availability guard: a tenant at its quota gets
    /// [`DtlError::QuotaExceeded`] instead of draining the shared pool.
    ///
    /// # Errors
    ///
    /// * [`DtlError::UnknownHost`] for unregistered hosts;
    /// * [`DtlError::QuotaExceeded`] for a quota below what the host
    ///   already maps (the device evicts nothing to meet one).
    pub fn set_host_quota(&mut self, host: HostId, quota_aus: Option<u32>) -> Result<(), DtlError> {
        self.admission().set_quota(host, quota_aus)
    }

    /// Grows a VM by `bytes` (AU-rounded) — memory ballooning up, as the
    /// paper's evaluation uses (§5.1). The new AUs extend the VM's HPA
    /// space; existing addresses are untouched.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DtlDevice::alloc_vm`], plus
    /// [`DtlError::UnknownVm`] for stale handles.
    pub fn grow_vm(
        &mut self,
        handle: VmHandle,
        bytes: u64,
        now: Picos,
    ) -> Result<Vec<AuId>, DtlError> {
        self.admission().grow_vm(handle, bytes, now)
    }

    /// Shrinks a VM by releasing its `n_aus` highest allocation units —
    /// memory ballooning down. The released HPA ranges become unmapped.
    ///
    /// # Errors
    ///
    /// * [`DtlError::UnknownVm`] for stale handles;
    /// * [`DtlError::Internal`] when asked to release more AUs than the VM
    ///   holds (release everything via [`DtlDevice::dealloc_vm`] instead).
    pub fn shrink_vm(&mut self, handle: VmHandle, n_aus: u32, now: Picos) -> Result<(), DtlError> {
        self.admission().shrink_vm(handle, n_aus, now)
    }

    /// Deallocates a VM: unmaps its AUs, cancels migrations touching them,
    /// and (if enabled) plans rank-level power-down.
    ///
    /// # Errors
    ///
    /// [`DtlError::UnknownVm`] for stale handles.
    pub fn dealloc_vm(&mut self, handle: VmHandle, now: Picos) -> Result<(), DtlError> {
        self.admission().dealloc_vm(handle, now)
    }

    /// Permanently retires a rank (the reliability extension the paper's
    /// conclusion points to): live segments are drained to the channel's
    /// other active ranks, the rank enters maximum power saving mode, and
    /// it is never used for allocation or woken for capacity again —
    /// transparently to every host.
    ///
    /// Powered-down rank groups are woken if the channel needs their
    /// capacity to absorb the retiring rank's data.
    ///
    /// # Errors
    ///
    /// * [`DtlError::OutOfCapacity`] when even with every group awake the
    ///   channel cannot absorb the rank's live segments;
    /// * [`DtlError::Internal`] when the rank is already retired/retiring
    ///   or is the channel's last active rank.
    pub fn retire_rank(&mut self, channel: u32, rank: u32, now: Picos) -> Result<(), DtlError> {
        self.power().retire_rank(channel, rank, now)
    }

    /// Replaces the error-health parameters, resetting all error history.
    /// Call before injecting any errors.
    pub fn set_health_params(&mut self, params: HealthParams) {
        self.health = HealthTracker::new(self.geo, params);
        self.health.set_telemetry(self.telemetry.clone());
    }

    /// Aggregate error-health statistics.
    pub fn health_stats(&self) -> HealthStats {
        self.health.stats()
    }

    /// The rank's effective error-health lifecycle state.
    pub fn rank_health(&self, channel: u32, rank: u32) -> RankHealth {
        self.health.health(channel, rank, self.power.lifecycle(channel, rank))
    }

    /// The rank's error counters and leaky-bucket level.
    pub fn rank_errors(&self, channel: u32, rank: u32) -> RankErrorRecord {
        self.health.counters(channel, rank)
    }

    /// Reports a correctable (ECC-fixed) error on a rank. The data is
    /// intact; the error only feeds the rank's leaky-bucket health counter.
    /// Crossing the retirement threshold triggers an automatic
    /// [`DtlDevice::retire_rank`]; a refused retirement (last active rank,
    /// or no spare capacity anywhere) leaves the rank `Degraded` but
    /// serving. Returns the rank's health after the error.
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] for a rank outside the geometry, or a broken
    /// invariant while draining the rank.
    pub fn inject_correctable_error(
        &mut self,
        channel: u32,
        rank: u32,
        now: Picos,
    ) -> Result<RankHealth, DtlError> {
        Ok(self.power().ecc_error(false, channel, rank, now)?.health)
    }

    /// Reports an uncorrectable (multi-bit) error on a rank. The mapping
    /// machinery is unaffected — translations stay consistent — but every
    /// live segment resident in the rank is at risk of returning poisoned
    /// data, and the report carries that blast radius so the harness can
    /// account host-visible loss. Counts heavily toward retirement.
    ///
    /// # Errors
    ///
    /// Same failure modes as [`DtlDevice::inject_correctable_error`].
    pub fn inject_uncorrectable_error(
        &mut self,
        channel: u32,
        rank: u32,
        now: Picos,
    ) -> Result<UncorrectableReport, DtlError> {
        self.power().ecc_error(true, channel, rank, now)
    }

    /// Cuts off the channel's in-flight migration mid-transfer (fault
    /// injection: controller reset / queue flush). Crash consistency holds
    /// in every outcome — mapping tables and SMC only ever change on job
    /// completion, so an interrupted job's partial destination data is
    /// discarded and the job *replays*; past its retry budget it is
    /// *rolled back*: a drain restarts from scratch (the rank must still
    /// empty), while a hotness move is abandoned and its reservation
    /// released.
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] for a channel outside the geometry or broken
    /// rollback bookkeeping.
    pub fn inject_migration_interrupt(
        &mut self,
        channel: u32,
        now: Picos,
    ) -> Result<MigrationInterrupt, DtlError> {
        let outcome = self.power().migration_interrupt(channel, now)?;
        if let MigrationInterrupt::RolledBack { job } = outcome {
            self.rollback_job(job, now)?;
        }
        Ok(outcome)
    }

    /// The mapping half of a job the engine rolled back after an
    /// interruption exhausted its retry budget; whether it restarts is
    /// [`PowerCtl::job_rolled_back`]'s.
    fn rollback_job(&mut self, job: MigrationJob, now: Picos) -> Result<(), DtlError> {
        if let Some(JobOrigin::Hotness { .. }) = self.job_origin.get(job.id) {
            // An abandoned consolidation move: drop any cached translations
            // of the endpoints, leaving the original mapping authoritative.
            let (x, y) = job.kind.endpoints();
            for h in [x, y].into_iter().filter_map(|d| self.tables.reverse(d)) {
                self.translator.invalidate(h);
            }
        }
        self.power().job_rolled_back(job, now)
    }

    /// Serves one 64 B access from a host.
    ///
    /// # Errors
    ///
    /// * [`DtlError::UnknownHost`] for unregistered hosts;
    /// * [`DtlError::UnmappedAddress`] for HPAs outside any live AU.
    pub fn access(
        &mut self,
        host: HostId,
        hpa: HostPhysAddr,
        kind: AccessKind,
        now: Picos,
    ) -> Result<AccessOutcome, DtlError> {
        // The host table is the registry: an index, nothing hashed.
        if !self.tables.has_host(host) {
            return Err(DtlError::UnknownHost(host));
        }
        self.process_events();
        let translation = self.translator.translate(
            host,
            hpa,
            &self.tables,
            self.backend.est_access_latency(),
        )?;
        let (dsn, smc_outcome, translation_latency, offset) =
            (translation.dsn, translation.smc, translation.latency, translation.offset);
        if let Some(hist) = &self.translation_hist {
            hist.lock()
                .expect("no recorder panicked mid-sample")
                .observe(translation_latency.as_ps());
        }
        // Atomic-migration write protocol (§4.2).
        let mut routed_dsn = dsn;
        if kind.is_write() {
            match self.migrate.on_foreground_write(dsn, offset, now) {
                WriteRouting::Proceed => {}
                WriteRouting::RouteTo(d) => {
                    routed_dsn = d;
                    self.stats.rerouted_writes += 1;
                }
                WriteRouting::AbortedJob => {
                    self.stats.aborting_writes += 1;
                }
            }
        }
        let loc = self.geo.location(routed_dsn);
        let arrival = now + translation_latency;
        let completion_estimate =
            self.backend.access(loc, offset, kind, Priority::Foreground, arrival);
        self.power.note_access(loc.channel, loc.rank, arrival);
        if self.hotness_enabled {
            self.hotness.on_access(loc, now);
        }
        self.stats.accesses += 1;
        if kind.is_write() {
            self.stats.writes += 1;
        }
        Ok(AccessOutcome {
            dsn: routed_dsn,
            smc: smc_outcome,
            translation_latency,
            completion_estimate,
        })
    }

    /// Advances device time: runs the backend, completes migrations,
    /// advances the hotness state machine.
    ///
    /// # Errors
    ///
    /// Internal errors indicate broken invariants and should be treated as
    /// bugs.
    pub fn tick(&mut self, now: Picos) -> Result<(), DtlError> {
        self.backend.advance_to(now);
        self.process_events();
        let completed = self.migrate.pump(now, &mut self.backend);
        for done in completed {
            self.slo_drain_age.observe(done.finished.saturating_sub(done.job.enqueued_at).as_ps());
            self.finish_job(done.job.id, done.job.kind, now)?;
        }
        if self.hotness_enabled {
            self.power().consolidate(now)?;
        }
        self.power().pump(now)
    }

    /// The next time [`DtlDevice::tick`] has real work to do, for
    /// event-driven drivers (`dtl-event`): the earliest in-flight or
    /// startable migration, or the next hotness phase deadline when the
    /// hotness engine is enabled. `None` means the device is quiescent —
    /// power-state residency and energy integrate analytically in the
    /// backend, so no tick is needed until new work arrives (an access,
    /// an allocation, or an explicit power-down request). Re-query after
    /// every tick or mutating call; deadlines move as work completes.
    pub fn next_activity_at(&self) -> Option<Picos> {
        let migrate = self.migrate.next_event_at();
        let hotness = if self.hotness_enabled { self.hotness.next_deadline() } else { None };
        let policy = self.power.next_deadline(&self.backend, &self.migrate);
        [migrate, hotness, policy].into_iter().flatten().min()
    }

    /// The mapping half of a finished job; what it means for the ranks is
    /// [`PowerCtl::job_settled`]'s.
    fn finish_job(&mut self, id: u64, kind: MigrationKind, now: Picos) -> Result<(), DtlError> {
        let Some(origin) = self.job_origin.remove(id) else {
            return Err(DtlError::Internal { reason: format!("job {id} has no origin") });
        };
        match (origin, kind) {
            (JobOrigin::Drain { .. }, MigrationKind::Swap { .. }) => {
                return Err(DtlError::Internal { reason: "drain job must be a copy".into() });
            }
            (JobOrigin::Drain { .. }, MigrationKind::Copy { src, dst }) => {
                match self.tables.reverse(src) {
                    Some(hsn) => {
                        self.tables.remap(hsn, dst)?;
                        self.tap.record(DeviceCommand::Remap { hsn, from: src, to: dst, at: now });
                        self.translator.invalidate(hsn);
                        self.alloc.complete_move(self.geo.location(src))?;
                    }
                    None => {
                        // Source vanished (deallocated) after the data
                        // moved: release the reservation.
                        self.alloc.free_segments(&[dst])?;
                    }
                }
            }
            // Hotness jobs are swaps (two live segments) or one-way copies
            // (live segment into a reserved free slot); the mapping update
            // is a swap either way.
            (JobOrigin::Hotness { .. }, kind) => {
                let (a, b) = kind.endpoints();
                let (ha, hb) = self.tables.swap(a, b)?;
                self.tap.record(DeviceCommand::MappingSwap { a, b, at: now });
                for h in [ha, hb].into_iter().flatten() {
                    self.translator.invalidate(h);
                }
                match kind {
                    MigrationKind::Swap { .. } => {
                        self.alloc.swap_status(self.geo.location(a), self.geo.location(b));
                    }
                    // The destination was reserved at enqueue; the vacated
                    // source becomes free.
                    MigrationKind::Copy { src, .. } => {
                        self.alloc.complete_move(self.geo.location(src))?;
                    }
                }
            }
        }
        self.power().job_settled(origin, now)
    }

    fn process_events(&mut self) {
        for ev in self.backend.drain_power_events() {
            let PowerEvent { at, channel, rank, from, to, cause } = ev;
            self.tap.record(DeviceCommand::PowerTransition { channel, rank, from, to, cause, at });
            RankPower::observed(&mut self.hotness, &ev);
        }
    }

    /// Integrated power report from the backend.
    pub fn power_report(&mut self, now: Picos) -> PowerReport {
        self.backend.power_report(now)
    }

    /// Takes an operational snapshot (cheap; read-only).
    pub fn snapshot(&self) -> DeviceSnapshot {
        let mut ranks =
            Vec::with_capacity((self.geo.channels * self.geo.ranks_per_channel) as usize);
        for c in 0..self.geo.channels {
            for r in 0..self.geo.ranks_per_channel {
                let errors = self.health.counters(c, r);
                ranks.push(RankSnapshot {
                    channel: c,
                    rank: r,
                    power: self.backend.rank_state(c, r),
                    lifecycle: self.power.lifecycle(c, r),
                    hotness: self.hotness.role(c, r),
                    health: self.rank_health(c, r),
                    correctable_errors: errors.correctable,
                    uncorrectable_errors: errors.uncorrectable,
                    allocated_segments: self.alloc.allocated_in_rank(c, r),
                    free_segments: self.alloc.free_in_rank(c, r),
                    residency: self.backend.rank_residency(c, r),
                });
            }
        }
        DeviceSnapshot {
            ranks,
            hosts: self.admission.snapshot(&self.tables),
            mapped_segments: self.tables.mapped_segments(),
            migrations_pending: self.migrations_pending(),
            stats: self.stats,
            errors: self.health.stats(),
        }
    }

    /// Verifies cross-structure invariants; cheap enough for tests after
    /// every operation, and priceless when they fail.
    ///
    /// # Errors
    ///
    /// [`DtlError::Internal`] describing the first violation of:
    /// * forward/reverse mapping consistency
    ///   ([`MappingTables::check_consistency`]);
    /// * allocator free/allocated partitioning
    ///   ([`SegmentAllocator::check_consistency`]);
    /// * **no mapped (live) segment may sit in an MPSM rank** — MPSM loses
    ///   data;
    /// * every other mapped segment is marked allocated;
    /// * in debug builds, the migration engine's endpoint index
    ///   ([`MigrationEngine::check_index`]);
    /// * per rank, lifecycle, allocator and backend agree, and every count
    ///   of outstanding drain or consolidation jobs is the number of live
    ///   jobs it stands for (`RankPower::check`, which also names the
    ///   plausible relation that does not hold);
    /// * per host, the VMs' AU lists and the free AU ids partition the ids
    ///   handed out, the tables hold exactly the listed AUs, and the kept
    ///   count is their number and within the quota (`Admission::check`).
    ///
    /// The first four visit every slot and segment of the device. The call
    /// remembers one thing: the tables' and the allocator's generations and
    /// the exact set of ranks in MPSM at its last fully clean pass. Those
    /// are everything the four depend on, and each generation moves on
    /// every mutation, so while all three are unchanged the four are
    /// skipped — the same state gives the same answer. The rest visits
    /// every rank, live migration job and AU id on every call.
    pub fn check_invariants(&self) -> Result<(), DtlError> {
        self.clean_sweep.check(&self.backend, &self.tables, &self.alloc, || {
            #[cfg(debug_assertions)]
            self.migrate.check_index()?;
            self.power.check(&self.backend, &self.alloc, &self.job_origin)?;
            self.admission.check(&self.tables)
        })
    }

    /// Forgets what [`DtlDevice::check_invariants`] last proved clean, so
    /// the next call sweeps every segment — for tests that hold the
    /// remembered verdict against a full one.
    #[doc(hidden)]
    pub fn forget_clean_sweep(&self) {
        self.clean_sweep.forget();
    }

    /// Dumps every engine's aggregate statistics into `registry` as
    /// monotonic counters (`device.*`, `smc.*`, `migrate.*`, `powerdown.*`,
    /// `hotness.*`, `health.*`). Counters are *set* to the current totals,
    /// so repeated exports are idempotent rather than additive.
    pub fn export_metrics(&self, registry: &MetricsRegistry) {
        let s = self.stats;
        registry.counter("device.accesses").set(s.accesses);
        registry.counter("device.writes").set(s.writes);
        registry.counter("device.rerouted_writes").set(s.rerouted_writes);
        registry.counter("device.aborting_writes").set(s.aborting_writes);
        registry.counter("device.vms_allocated").set(s.vms_allocated);
        registry.counter("device.vms_deallocated").set(s.vms_deallocated);
        registry.counter("device.capacity_wakes").set(s.capacity_wakes);
        registry.counter("device.migration_interrupts").set(s.migration_interrupts);
        registry.counter("device.auto_retirements").set(s.auto_retirements);
        let smc = self.smc_stats();
        registry.counter("smc.l1_hits").set(smc.l1_hits);
        registry.counter("smc.l1_misses").set(smc.l1_misses);
        registry.counter("smc.l2_hits").set(smc.l2_hits);
        registry.counter("smc.l2_misses").set(smc.l2_misses);
        let m = self.migration_stats();
        registry.counter("migrate.completed").set(m.completed);
        registry.counter("migrate.bytes_moved").set(m.bytes_moved);
        registry.counter("migrate.aborts").set(m.aborts);
        registry.counter("migrate.requeues").set(m.requeues);
        registry.counter("migrate.interrupts").set(m.interrupts);
        registry.counter("migrate.rollbacks").set(m.rollbacks);
        let pd = self.powerdown_stats();
        registry.counter("powerdown.groups_powered_down").set(pd.groups_powered_down);
        registry.counter("powerdown.groups_woken").set(pd.groups_woken);
        registry.counter("powerdown.segments_drained").set(pd.segments_drained);
        registry.counter("powerdown.ranks_retired").set(pd.ranks_retired);
        let h = self.hotness_stats();
        registry.counter("hotness.swaps_planned").set(h.swaps_planned);
        registry.counter("hotness.restores").set(h.restores);
        registry.counter("hotness.tsp_timeouts").set(h.tsp_timeouts);
        registry.counter("hotness.plans_frozen").set(h.plans_frozen);
        registry.counter("hotness.sr_entries").set(h.sr_entries);
        registry.counter("hotness.sr_exits").set(h.sr_exits);
        let he = self.health.stats();
        registry.counter("health.correctable_errors").set(he.correctable_errors);
        registry.counter("health.uncorrectable_errors").set(he.uncorrectable_errors);
        registry.counter("health.retire_trips").set(he.retire_trips);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::AnalyticBackend;

    /// Tiny device: 2 channels x 4 ranks x 32 segments (256 KiB segments,
    /// 8 MiB AUs of 32 segments = 16 per channel... AU = 32 segments).
    fn device() -> DtlDevice<AnalyticBackend> {
        let cfg = DtlConfig::tiny();
        let mut dev = DtlDevice::with_analytic_geometry(cfg, 2, 4, 32);
        dev.register_host(HostId(0)).unwrap();
        dev
    }

    fn au_bytes() -> u64 {
        DtlConfig::tiny().au_bytes
    }

    #[test]
    fn vm_lifecycle_round_trip() {
        let mut dev = device();
        let vm = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        assert_eq!(vm.aus.len(), 1);
        assert_eq!(vm.bytes, au_bytes());
        dev.check_invariants().unwrap();
        dev.dealloc_vm(vm.handle, Picos::from_us(1)).unwrap();
        assert!(matches!(
            dev.dealloc_vm(vm.handle, Picos::from_us(2)),
            Err(DtlError::UnknownVm(_))
        ));
        dev.check_invariants().unwrap();
    }

    /// Event-driven driving (tick only at `next_activity_at`) must reach
    /// the same logical end state as a fine tick grid: same migrations,
    /// same power-downs, same final mapping. (Residency is *better* under
    /// event driving — ranks transition at exact completion times instead
    /// of the next grid point — so only logical state is compared.)
    #[test]
    fn next_activity_walk_matches_tick_grid() {
        let horizon = Picos::from_ms(50);
        let drive = |event_driven: bool| {
            let mut dev = device();
            dev.set_hotness_enabled(false);
            let mut ticks = 0u32;
            let vms: Vec<_> = (0..4)
                .map(|i| dev.alloc_vm(HostId(0), au_bytes(), Picos::from_us(i)).expect("fits"))
                .collect();
            // Deallocating every other VM leaves two half-full ranks per
            // channel: the planner parks the empty ranks immediately and
            // must *drain* (copy) the straggler segments to consolidate
            // further — real migrations for the event walk to chase.
            dev.dealloc_vm(vms[1].handle, Picos::from_us(10)).unwrap();
            dev.dealloc_vm(vms[3].handle, Picos::from_us(10)).unwrap();
            if event_driven {
                while let Some(t) = dev.next_activity_at() {
                    if t > horizon {
                        break;
                    }
                    dev.tick(t.max(Picos::from_us(10))).unwrap();
                    ticks += 1;
                }
            } else {
                let mut t = Picos::from_us(10);
                while t < horizon {
                    t += Picos::from_us(25);
                    dev.tick(t).unwrap();
                    ticks += 1;
                }
            }
            dev.tick(horizon).unwrap();
            dev.check_invariants().unwrap();
            let mut mapping = dev.mapped_entries();
            mapping.sort();
            (
                dev.migration_stats().completed,
                dev.migration_stats().bytes_moved,
                dev.powerdown_stats().groups_powered_down,
                mapping,
                ticks,
            )
        };
        let (g_done, g_bytes, g_groups, g_map, g_ticks) = drive(false);
        let (e_done, e_bytes, e_groups, e_map, e_ticks) = drive(true);
        assert!(g_done > 0, "drains must actually run");
        assert!(g_groups > 0, "a rank group must park");
        assert_eq!((e_done, e_bytes, e_groups), (g_done, g_bytes, g_groups));
        assert_eq!(e_map, g_map, "same final mapping either way");
        assert!(e_ticks < g_ticks, "event walk ({e_ticks} ticks) must beat the grid ({g_ticks})");
    }

    #[test]
    fn admission_and_drain_histograms_observe_slo_inputs() {
        let mut dev = device();
        dev.set_hotness_enabled(false);
        let vms: Vec<_> = (0..4)
            .map(|i| dev.alloc_vm(HostId(0), au_bytes(), Picos::from_us(i)).expect("fits"))
            .collect();
        // An AU carved with no wakes: latency is exactly the table-carve
        // cost (one controller cycle per segment entry).
        let carve = dev.config().controller_cycle() * dev.config().segments_per_au();
        assert_eq!(dev.last_admission_latency(), carve);
        assert_eq!(dev.admission_histogram().count(), 4);
        // Deallocating every other VM leaves straggler segments the
        // planner must drain (copy): the backlog high-water must see the
        // queued drain copies.
        dev.dealloc_vm(vms[1].handle, Picos::from_us(10)).unwrap();
        dev.dealloc_vm(vms[3].handle, Picos::from_us(10)).unwrap();
        assert!(dev.migration_backlog_high_water() > 0);
        // Run the drains out and check their ages were observed.
        let mut t = Picos::from_us(30);
        for _ in 0..200 {
            dev.tick(t).unwrap();
            t += Picos::from_us(500);
        }
        assert!(dev.drain_age_histogram().count() > 0, "completed drains observed");
        assert!(dev.drain_age_histogram().percentile(100.0) > 0);
        // Force capacity wakes: admission latency must now include the
        // MPSM exit penalty on top of the carve cost.
        let big = 2 * 32 * dev.config().segment_bytes * 2;
        dev.alloc_vm(HostId(0), big, t).unwrap();
        assert!(dev.stats().capacity_wakes > 0);
        assert!(dev.last_admission_latency() > carve * (big / au_bytes()));
        assert_eq!(dev.admission_histogram().count(), 5);
    }

    #[test]
    fn unregistered_host_rejected() {
        let mut dev = device();
        assert!(matches!(
            dev.alloc_vm(HostId(3), au_bytes(), Picos::ZERO),
            Err(DtlError::UnknownHost(_))
        ));
        assert!(matches!(
            dev.access(HostId(3), HostPhysAddr::new(0), AccessKind::Read, Picos::ZERO),
            Err(DtlError::UnknownHost(_))
        ));
        // And hosts beyond max_hosts cannot register.
        assert!(matches!(dev.register_host(HostId(100)), Err(DtlError::TooManyHosts { .. })));
    }

    #[test]
    fn access_translates_and_counts() {
        let mut dev = device();
        let vm = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        let base = vm.hpa_base(0, au_bytes());
        let out1 = dev.access(HostId(0), base, AccessKind::Read, Picos::from_us(1)).unwrap();
        assert_eq!(out1.smc, SmcOutcome::Miss, "cold translation");
        let out2 = dev
            .access(HostId(0), base.offset_by(64), AccessKind::Write, Picos::from_us(2))
            .unwrap();
        assert_eq!(out2.smc, SmcOutcome::L1Hit);
        assert_eq!(out2.dsn, out1.dsn, "same segment");
        assert!(out1.translation_latency > out2.translation_latency);
        let s = dev.stats();
        assert_eq!(s.accesses, 2);
        assert_eq!(s.writes, 1);
    }

    #[test]
    fn unmapped_access_rejected() {
        let mut dev = device();
        let _vm = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        // AU 5 was never allocated.
        let bad = HostPhysAddr::new(5 * au_bytes());
        assert!(matches!(
            dev.access(HostId(0), bad, AccessKind::Read, Picos::ZERO),
            Err(DtlError::UnmappedAddress { .. })
        ));
    }

    #[test]
    fn consecutive_segments_rotate_channels() {
        let mut dev = device();
        let vm = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        let base = vm.hpa_base(0, au_bytes());
        let seg = dev.config().segment_bytes;
        let mut channels = Vec::new();
        for k in 0..4u64 {
            let out = dev
                .access(HostId(0), base.offset_by(k * seg), AccessKind::Read, Picos::from_us(k))
                .unwrap();
            channels.push(dev.geometry().location(out.dsn).channel);
        }
        assert_eq!(channels, vec![0, 1, 0, 1], "DTL interleaves channels per segment");
    }

    #[test]
    fn dealloc_triggers_rank_power_down() {
        let mut dev = device();
        dev.set_hotness_enabled(false);
        let vm = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        assert_eq!(dev.active_ranks(0), 4);
        dev.dealloc_vm(vm.handle, Picos::from_us(10)).unwrap();
        // Everything free: the engine should stack power-downs until one
        // active rank remains per channel.
        let mut t = Picos::from_us(20);
        for _ in 0..200 {
            dev.tick(t).unwrap();
            t += Picos::from_us(200);
            if dev.active_ranks(0) == 1 {
                break;
            }
            // Re-plan on every tick via dealloc-equivalent check.
        }
        // Power-down plans happen at dealloc; with an empty device the
        // while-loop in try_power_down stacks all three groups at once.
        assert_eq!(dev.active_ranks(0), 1);
        assert_eq!(dev.powerdown_stats().groups_powered_down, 3);
        for r in 1..4 {
            // Some subset of ranks is in MPSM (virtual groups).
            let _ = r;
        }
        dev.check_invariants().unwrap();
    }

    #[test]
    fn capacity_pressure_wakes_ranks() {
        let mut dev = device();
        dev.set_hotness_enabled(false);
        let vm = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        dev.dealloc_vm(vm.handle, Picos::from_us(10)).unwrap();
        assert_eq!(dev.active_ranks(0), 1);
        // One rank per channel = 32 segments/ch; an AU takes 16/ch. Two AUs
        // fit; the third forces a wake.
        let capacity_of_one_rank_group = 2 * 32 * dev.config().segment_bytes;
        let vm2 =
            dev.alloc_vm(HostId(0), capacity_of_one_rank_group * 2, Picos::from_us(20)).unwrap();
        assert!(dev.stats().capacity_wakes > 0);
        assert!(dev.active_ranks(0) > 1);
        dev.check_invariants().unwrap();
        dev.dealloc_vm(vm2.handle, Picos::from_us(30)).unwrap();
        dev.check_invariants().unwrap();
    }

    #[test]
    fn drain_migration_remaps_live_segments() {
        let mut dev = device();
        dev.set_hotness_enabled(false);
        // Two VMs; deallocating one leaves live data to drain eventually.
        let vm1 = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        let vm2 = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        let base2 = vm2.hpa_base(0, au_bytes());
        let before = dev.access(HostId(0), base2, AccessKind::Read, Picos::from_us(1)).unwrap().dsn;
        dev.dealloc_vm(vm1.handle, Picos::from_us(10)).unwrap();
        // Run migrations to completion.
        let mut t = Picos::from_us(20);
        for _ in 0..500 {
            dev.tick(t).unwrap();
            t += Picos::from_us(500);
            if dev.migration_stats().completed > 0 || dev.powerdown_stats().groups_powered_down > 2
            {
                // keep running a bit to finish everything
            }
        }
        dev.check_invariants().unwrap();
        // vm2's data must still be reachable (possibly remapped).
        let after = dev.access(HostId(0), base2, AccessKind::Read, t).unwrap().dsn;
        let _ = (before, after); // both valid translations; invariants hold
        assert!(dev.powerdown_stats().groups_powered_down >= 1);
    }

    #[test]
    fn hotness_cycle_reaches_self_refresh() {
        let mut dev = device();
        dev.set_powerdown_enabled(false);
        let vm = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        let base = vm.hpa_base(0, au_bytes());
        let seg = dev.config().segment_bytes;
        // Hammer two segments per channel; leave the rest cold.
        let mut t = Picos::from_us(1);
        for round in 0..6000u64 {
            for k in 0..4u64 {
                dev.access(HostId(0), base.offset_by(k * seg), AccessKind::Read, t).unwrap();
            }
            t += Picos::from_us(1);
            if round % 16 == 0 {
                dev.tick(t).unwrap();
            }
        }
        // Let the idle threshold expire and migrations run.
        for _ in 0..100 {
            t += Picos::from_us(100);
            dev.tick(t).unwrap();
        }
        let hs = dev.hotness_stats();
        assert!(hs.plans_frozen > 0, "a plan must freeze: {hs:?}");
        assert!(hs.sr_entries > 0, "a victim must enter self-refresh: {hs:?}");
        dev.check_invariants().unwrap();
        // Some rank is actually in self-refresh at the backend.
        let mut any_sr = false;
        for c in 0..2 {
            for r in 0..4 {
                if dev.backend().rank_state(c, r) == PowerState::SelfRefresh {
                    any_sr = true;
                }
            }
        }
        assert!(any_sr);
    }

    #[test]
    fn sr_rank_wakes_on_access_and_reprofiles() {
        let mut dev = device();
        dev.set_powerdown_enabled(false);
        // Fill the whole device (8 AUs) so every rank holds live data and
        // the self-refresh victim can actually be woken by a host access.
        let vm = dev.alloc_vm(HostId(0), 8 * au_bytes(), Picos::ZERO).unwrap();
        assert_eq!(vm.aus.len(), 8);
        let base = vm.hpa_base(0, au_bytes());
        let seg = dev.config().segment_bytes;
        let mut t = Picos::from_us(1);
        for round in 0..6000u64 {
            for k in 0..4u64 {
                dev.access(HostId(0), base.offset_by(k * seg), AccessKind::Read, t).unwrap();
            }
            t += Picos::from_us(1);
            if round % 16 == 0 {
                dev.tick(t).unwrap();
            }
        }
        for _ in 0..200 {
            t += Picos::from_us(100);
            dev.tick(t).unwrap();
        }
        assert!(dev.hotness_stats().sr_entries > 0, "{:?}", dev.hotness_stats());
        // Touch every segment of every AU to guarantee hitting the victim.
        for (i, _au) in vm.aus.iter().enumerate() {
            let b = vm.hpa_base(i, au_bytes());
            for k in 0..dev.config().segments_per_au() {
                dev.access(HostId(0), b.offset_by(k * seg), AccessKind::Read, t).unwrap();
            }
        }
        dev.tick(t + Picos::from_us(1)).unwrap();
        assert!(dev.hotness_stats().sr_exits > 0, "{:?}", dev.hotness_stats());
        dev.check_invariants().unwrap();
    }

    #[test]
    fn au_ids_are_reused_after_dealloc() {
        let mut dev = device();
        dev.set_powerdown_enabled(false);
        dev.set_hotness_enabled(false);
        let vm1 = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        let first_au = vm1.aus[0];
        dev.dealloc_vm(vm1.handle, Picos::from_us(1)).unwrap();
        let vm2 = dev.alloc_vm(HostId(0), au_bytes(), Picos::from_us(2)).unwrap();
        assert_eq!(vm2.aus[0], first_au, "freed AU ids are recycled");
    }

    #[test]
    fn multi_au_vm_spans_contiguous_hpa() {
        let mut dev = device();
        dev.set_powerdown_enabled(false);
        let vm = dev.alloc_vm(HostId(0), 2 * au_bytes(), Picos::ZERO).unwrap();
        assert_eq!(vm.aus.len(), 2);
        assert_eq!(vm.bytes, 2 * au_bytes());
        // Every segment of both AUs translates.
        for (i, _au) in vm.aus.iter().enumerate() {
            let base = vm.hpa_base(i, au_bytes());
            dev.access(HostId(0), base, AccessKind::Read, Picos::from_us(1)).unwrap();
        }
        dev.check_invariants().unwrap();
    }

    #[test]
    fn full_device_is_out_of_capacity() {
        let mut dev = device();
        dev.set_powerdown_enabled(false);
        dev.set_hotness_enabled(false);
        // Device: 2ch x 4rk x 32 segs = 256 segments; AU = 32 segments.
        for _ in 0..8 {
            dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        }
        assert!(matches!(
            dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO),
            Err(DtlError::OutOfCapacity { .. })
        ));
        dev.check_invariants().unwrap();
    }
}

#[cfg(test)]
mod retirement_tests {
    use super::*;
    use crate::backend::AnalyticBackend;

    fn device() -> DtlDevice<AnalyticBackend> {
        let cfg = DtlConfig::tiny();
        let mut dev = DtlDevice::with_analytic_geometry(cfg, 2, 4, 32);
        dev.register_host(HostId(0)).unwrap();
        dev
    }

    fn au_bytes() -> u64 {
        DtlConfig::tiny().au_bytes
    }

    fn drain(dev: &mut DtlDevice<AnalyticBackend>, from: Picos) -> Picos {
        let mut t = from;
        for _ in 0..200 {
            t += Picos::from_ms(1);
            dev.tick(t).unwrap();
            if dev.migrations_pending() == 0 {
                break;
            }
        }
        t
    }

    #[test]
    fn retiring_an_empty_rank_is_immediate() {
        let mut dev = device();
        dev.set_hotness_enabled(false);
        dev.set_powerdown_enabled(false);
        dev.retire_rank(0, 3, Picos::from_us(1)).unwrap();
        assert_eq!(dev.powerdown_stats().ranks_retired, 1);
        assert_eq!(dev.backend().rank_state(0, 3), PowerState::Mpsm);
        assert_eq!(dev.active_ranks(0), 3);
        dev.check_invariants().unwrap();
        // Retiring it twice is an error.
        assert!(dev.retire_rank(0, 3, Picos::from_us(2)).is_err());
    }

    #[test]
    fn retiring_a_loaded_rank_drains_it_first() {
        let mut dev = device();
        dev.set_hotness_enabled(false);
        dev.set_powerdown_enabled(false);
        let vm = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        // The VM's data landed in some rank; retire that rank.
        let out = dev
            .access(HostId(0), vm.hpa_base(0, au_bytes()), AccessKind::Read, Picos::from_us(1))
            .unwrap();
        let loc = dev.geometry().location(out.dsn);
        dev.retire_rank(loc.channel, loc.rank, Picos::from_us(2)).unwrap();
        let t = drain(&mut dev, Picos::from_us(3));
        assert_eq!(dev.powerdown_stats().ranks_retired, 1);
        assert_eq!(dev.backend().rank_state(loc.channel, loc.rank), PowerState::Mpsm);
        // The data is still reachable, now from a different rank.
        let out2 = dev.access(HostId(0), vm.hpa_base(0, au_bytes()), AccessKind::Read, t).unwrap();
        let loc2 = dev.geometry().location(out2.dsn);
        assert_ne!((loc2.channel, loc2.rank), (loc.channel, loc.rank));
        dev.check_invariants().unwrap();
    }

    #[test]
    fn retired_rank_is_never_woken_for_capacity() {
        let mut dev = device();
        dev.set_hotness_enabled(false);
        dev.retire_rank(0, 3, Picos::from_us(1)).unwrap();
        dev.retire_rank(1, 3, Picos::from_us(1)).unwrap();
        // Fill the remaining capacity: 3 ranks x 32 segs x 2 ch = 192 segs
        // = 6 AUs of 32 segments.
        for _ in 0..6 {
            dev.alloc_vm(HostId(0), au_bytes(), Picos::from_us(2)).unwrap();
        }
        // The next allocation must fail rather than waking the retired rank.
        assert!(matches!(
            dev.alloc_vm(HostId(0), au_bytes(), Picos::from_us(3)),
            Err(DtlError::OutOfCapacity { .. })
        ));
        assert_eq!(dev.backend().rank_state(0, 3), PowerState::Mpsm);
        dev.check_invariants().unwrap();
    }

    #[test]
    fn retirement_wakes_powered_down_groups_for_space() {
        let mut dev = device();
        dev.set_hotness_enabled(false);
        // One VM, then dealloc-driven power-down leaves 1 active rank/ch.
        let vm = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        let out = dev
            .access(HostId(0), vm.hpa_base(0, au_bytes()), AccessKind::Read, Picos::from_us(1))
            .unwrap();
        let loc = dev.geometry().location(out.dsn);
        let vm2 = dev.alloc_vm(HostId(0), au_bytes(), Picos::from_us(2)).unwrap();
        dev.dealloc_vm(vm2.handle, Picos::from_us(3)).unwrap();
        let t = drain(&mut dev, Picos::from_us(4));
        // Retire the rank holding vm's data: its channel has capacity only
        // in powered-down ranks, which must wake.
        dev.retire_rank(loc.channel, loc.rank, t).unwrap();
        let t = drain(&mut dev, t);
        assert_eq!(dev.backend().rank_state(loc.channel, loc.rank), PowerState::Mpsm);
        assert!(dev.stats().capacity_wakes > 0 || dev.active_ranks(loc.channel) >= 1);
        dev.access(HostId(0), vm.hpa_base(0, au_bytes()), AccessKind::Read, t).unwrap();
        dev.check_invariants().unwrap();
    }

    #[test]
    fn cannot_retire_last_active_rank() {
        let mut dev = device();
        dev.set_hotness_enabled(false);
        dev.set_powerdown_enabled(false);
        for r in [1u32, 2, 3] {
            dev.retire_rank(0, r, Picos::from_us(1)).unwrap();
        }
        assert!(dev.retire_rank(0, 0, Picos::from_us(2)).is_err());
        dev.check_invariants().unwrap();
    }
}

#[cfg(test)]
mod fault_tests {
    use super::*;
    use crate::addr::SegmentLocation;
    use crate::backend::AnalyticBackend;

    fn device() -> DtlDevice<AnalyticBackend> {
        let cfg = DtlConfig::tiny();
        let mut dev = DtlDevice::with_analytic_geometry(cfg, 2, 4, 32);
        dev.register_host(HostId(0)).unwrap();
        dev
    }

    fn au_bytes() -> u64 {
        DtlConfig::tiny().au_bytes
    }

    #[test]
    fn sparse_correctable_errors_stay_healthy() {
        let mut dev = device();
        for k in 0..10u64 {
            let h = dev.inject_correctable_error(0, 0, Picos::from_secs(10 * k)).unwrap();
            assert_eq!(h, RankHealth::Healthy);
        }
        assert_eq!(dev.health_stats().correctable_errors, 10);
        assert_eq!(dev.stats().auto_retirements, 0);
        assert_eq!(dev.rank_errors(0, 0).correctable, 10);
    }

    #[test]
    fn out_of_range_injections_rejected() {
        let mut dev = device();
        assert!(dev.inject_correctable_error(0, 9, Picos::ZERO).is_err());
        assert!(dev.inject_uncorrectable_error(5, 0, Picos::ZERO).is_err());
        assert!(dev.inject_migration_interrupt(7, Picos::ZERO).is_err());
    }

    #[test]
    fn error_storm_drives_victim_through_lifecycle() {
        let mut dev = device();
        dev.set_hotness_enabled(false);
        dev.set_powerdown_enabled(false);
        let vm = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        let base = vm.hpa_base(0, au_bytes());
        // The AU spreads over both channels; find a rank holding live data.
        let out = dev.access(HostId(0), base, AccessKind::Read, Picos::from_us(1)).unwrap();
        let loc = dev.geometry().location(out.dsn);
        // Storm: one correctable error per millisecond on the victim.
        let mut t = Picos::from_us(10);
        let mut saw_degraded = false;
        let mut tripped = false;
        for _ in 0..40 {
            let h = dev.inject_correctable_error(loc.channel, loc.rank, t).unwrap();
            match h {
                RankHealth::Degraded => saw_degraded = true,
                RankHealth::Draining | RankHealth::Retired => {
                    tripped = true;
                    break;
                }
                RankHealth::Healthy => {}
            }
            t += Picos::from_ms(1);
        }
        assert!(saw_degraded, "the bucket passes through Degraded first");
        assert!(tripped, "a dense storm must trip retirement");
        assert_eq!(dev.stats().auto_retirements, 1);
        // Drain to completion: the victim ends Retired with nothing live.
        for _ in 0..200 {
            t += Picos::from_ms(1);
            dev.tick(t).unwrap();
            if dev.migrations_pending() == 0 {
                break;
            }
        }
        assert_eq!(dev.rank_health(loc.channel, loc.rank), RankHealth::Retired);
        let snap = dev.snapshot();
        let victim =
            snap.ranks.iter().find(|r| r.channel == loc.channel && r.rank == loc.rank).unwrap();
        assert_eq!(victim.health, RankHealth::Retired);
        assert_eq!(victim.allocated_segments, 0, "live segments migrated out");
        assert!(victim.correctable_errors >= 12);
        // The VM's data survived the retirement.
        let out2 = dev.access(HostId(0), base, AccessKind::Read, t).unwrap();
        let loc2 = dev.geometry().location(out2.dsn);
        assert_ne!((loc2.channel, loc2.rank), (loc.channel, loc.rank));
        dev.check_invariants().unwrap();
    }

    #[test]
    fn uncorrectable_error_reports_blast_radius() {
        let mut dev = device();
        dev.set_hotness_enabled(false);
        dev.set_powerdown_enabled(false);
        let vm = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        let out = dev
            .access(HostId(0), vm.hpa_base(0, au_bytes()), AccessKind::Read, Picos::from_us(1))
            .unwrap();
        let loc = dev.geometry().location(out.dsn);
        let live = dev
            .snapshot()
            .ranks
            .iter()
            .find(|r| r.channel == loc.channel && r.rank == loc.rank)
            .unwrap()
            .allocated_segments;
        let report =
            dev.inject_uncorrectable_error(loc.channel, loc.rank, Picos::from_us(2)).unwrap();
        assert_eq!(report.segments_at_risk, live);
        assert_eq!(report.health, RankHealth::Degraded, "one uncorrectable degrades");
        // An empty rank has no blast radius.
        let empty = (0..4).find(|r| {
            dev.snapshot()
                .ranks
                .iter()
                .any(|s| s.channel == 0 && s.rank == *r && s.allocated_segments == 0)
        });
        if let Some(r) = empty {
            let rep = dev.inject_uncorrectable_error(0, r, Picos::from_us(3)).unwrap();
            assert_eq!(rep.segments_at_risk, 0);
        }
        dev.check_invariants().unwrap();
    }

    /// The strided count of `inject_uncorrectable_error` against the
    /// whole-device filter it replaced, on a device fragmented by
    /// deallocations, drains in flight and a retirement.
    #[test]
    fn blast_radius_counts_the_rank_stride_like_the_whole_device_filter() {
        let mut dev = device();
        dev.set_hotness_enabled(false);
        let vms: Vec<_> = (0..6)
            .map(|i| dev.alloc_vm(HostId(0), au_bytes(), Picos::from_us(i)).expect("fits"))
            .collect();
        for i in [0, 3, 4] {
            dev.dealloc_vm(vms[i].handle, Picos::from_us(10)).unwrap();
        }
        // Stop mid-consolidation: some stragglers moved, some not yet.
        dev.tick(Picos::from_us(400)).unwrap();
        let geo = dev.geometry();
        let mut at_risk = 0;
        for (i, (channel, rank)) in (0..geo.channels)
            .flat_map(|c| (0..geo.ranks_per_channel).map(move |r| (c, r)))
            .enumerate()
        {
            let filtered = dev
                .mapped_entries()
                .iter()
                .map(|(dsn, _)| geo.location(*dsn))
                .filter(|loc| loc.channel == channel && loc.rank == rank)
                .count() as u64;
            let now = Picos::from_us(500 + i as u64);
            let report = dev.inject_uncorrectable_error(channel, rank, now).unwrap();
            assert_eq!(report.segments_at_risk, filtered, "ch{channel}/rk{rank}");
            at_risk += filtered;
        }
        assert_eq!(at_risk, 3 * dev.config().segments_per_au(), "three VMs are live");
        dev.check_invariants().unwrap();
    }

    /// One hand mutation per violation class `check_invariants` documents:
    /// the fast sweep must still report each.
    #[test]
    fn sweep_reports_every_violation_class() {
        type Corruption = fn(&mut DtlDevice<AnalyticBackend>, SegmentLocation);
        let cases: [(&str, Corruption); 22] = [
            ("but reverse says", |dev, _| {
                dev.corrupt_mapping_for_test().unwrap();
            }),
            ("mapped count is", |dev, _| *dev.tables.mapped_count_for_test() += 1),
            ("in both free and allocated", |dev, live| {
                dev.alloc.corrupt_for_test(live.channel, live.rank).0[0] = live.within;
            }),
            ("queued free twice", |dev, live| {
                let free = dev.alloc.corrupt_for_test(live.channel, live.rank).0;
                free[1] = free[0];
            }),
            ("outside the rank", |dev, live| {
                dev.alloc.corrupt_for_test(live.channel, live.rank).0[0] = 32;
            }),
            ("bits set", |dev, live| {
                *dev.alloc.corrupt_for_test(live.channel, live.rank).1 += 1;
            }),
            ("!= rank size", |dev, live| {
                dev.alloc.corrupt_for_test(live.channel, live.rank).0.pop_back();
            }),
            ("not marked allocated", |dev, live| {
                // The allocator stays a perfect tiling; only the cross-check
                // against the mapping can see this.
                let dsn = dev.geo.dsn(live);
                dev.alloc.free_segments(&[dsn]).unwrap();
            }),
            ("in MPSM rank", |dev, live| {
                dev.power()
                    .commit(live.channel, live.rank, PowerState::Mpsm, Picos::from_us(5))
                    .unwrap();
            }),
            // The copies of a rank's state, and the counts of outstanding
            // jobs: one disagreement each.
            ("but the allocator differs", |dev, live| {
                dev.alloc.set_rank_active(live.channel, live.rank, false);
            }),
            ("is Active but in Mpsm", |dev, live| {
                // An empty rank, so that no live segment is in MPSM.
                let t = Picos::from_us(5);
                dev.power().commit(live.channel, live.rank + 1, PowerState::Mpsm, t).unwrap();
            }),
            ("is Draining, drain group None", |dev, live| {
                *dev.power.corrupt_for_test(live.channel, live.rank).0 = RankPdState::Draining;
                dev.alloc.set_rank_active(live.channel, live.rank, false);
            }),
            ("drain group 0 waits for 1 jobs, 0 are live", |dev, live| {
                *dev.power.corrupt_for_test(live.channel, live.rank).1 = 1;
            }),
            ("a live job names drain group 9", |dev, _| {
                dev.job_origin.insert(7, JobOrigin::Drain { group: 9 });
            }),
            ("ch1 consolidation waits for 0 jobs, 1 are live", |dev, _| {
                dev.job_origin.insert(7, JobOrigin::Hotness { channel: 1 });
            }),
            // Admission: the host's AU ids, its VMs, the tables, the kept
            // count and the quota.
            ("AU 0 is in 2 of the VM and free lists", |dev, _| {
                dev.admission.corrupt_for_test(HostId(0)).0.push(AuId(0));
            }),
            ("AU 0 is in 0 of the VM and free lists", |dev, _| {
                dev.admission.corrupt_for_test(HostId(0)).1.clear();
            }),
            ("au9 was never handed out", |dev, _| {
                dev.admission.corrupt_for_test(HostId(0)).0.push(AuId(9));
            }),
            ("au0 is in a VM but not in the tables", |dev, _| {
                dev.tables.remove_au(HostId(0), AuId(0)).unwrap();
            }),
            ("VMs list 1 AUs, count 1, tables 2", |dev, _| {
                let dsns = dev.alloc.allocate_au(dev.config.segments_per_au()).unwrap();
                dev.tables.create_au(HostId(0), AuId(1), dsns).unwrap();
            }),
            ("VMs list 1 AUs, count 2, tables 1", |dev, _| {
                *dev.admission.corrupt_for_test(HostId(0)).2 += 1;
            }),
            ("1 AUs mapped over a quota of 0", |dev, _| {
                *dev.admission.corrupt_for_test(HostId(0)).3 = Some(0);
            }),
        ];
        for (expected, corrupt) in cases {
            let mut dev = device();
            dev.set_hotness_enabled(false);
            dev.set_powerdown_enabled(false);
            let vm = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
            let dsn = dev.probe_translation(HostId(0), vm.hpa_base(0, au_bytes())).unwrap();
            dev.check_invariants().unwrap();
            let live = dev.geo.location(dsn);
            corrupt(&mut dev, live);
            match dev.check_invariants() {
                Err(DtlError::Internal { reason }) => {
                    assert!(reason.contains(expected), "wanted {expected:?}, got {reason:?}");
                }
                other => panic!("{expected:?} went unreported: {other:?}"),
            }
        }
    }

    /// The sweep remembers the set of ranks in MPSM with its last clean
    /// pass: parking a rank that still maps a live segment, at the backend
    /// only, moves neither the tables' nor the allocator's generation, and
    /// is still reported.
    #[test]
    fn sweep_sees_a_rank_parked_at_the_backend_only() {
        let mut dev = device();
        dev.set_hotness_enabled(false);
        dev.set_powerdown_enabled(false);
        let vm = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        let dsn = dev.probe_translation(HostId(0), vm.hpa_base(0, au_bytes())).unwrap();
        let live = dev.geo.location(dsn);
        dev.check_invariants().unwrap();
        let generations = (dev.tables.generation(), dev.alloc.generation());
        dev.power().commit(live.channel, live.rank, PowerState::Mpsm, Picos::from_us(5)).unwrap();
        assert_eq!((dev.tables.generation(), dev.alloc.generation()), generations);
        match dev.check_invariants() {
            Err(DtlError::Internal { reason }) => {
                assert!(reason.contains("in MPSM rank"), "{reason}")
            }
            other => panic!("a live segment in MPSM went unreported: {other:?}"),
        }
    }

    #[test]
    #[should_panic(expected = "cannot balance over 3 channels")]
    fn new_refuses_a_geometry_the_config_cannot_run_on() {
        // Tiny AUs hold 32 segments: not a whole number per channel of 3.
        DtlDevice::with_analytic_geometry(DtlConfig::tiny(), 3, 4, 32);
    }

    #[test]
    fn interrupted_drain_replays_and_still_retires() {
        let mut dev = device();
        dev.set_hotness_enabled(false);
        dev.set_powerdown_enabled(false);
        let vm = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        let out = dev
            .access(HostId(0), vm.hpa_base(0, au_bytes()), AccessKind::Read, Picos::from_us(1))
            .unwrap();
        let loc = dev.geometry().location(out.dsn);
        dev.retire_rank(loc.channel, loc.rank, Picos::from_us(2)).unwrap();
        // Interrupt the drain repeatedly while ticking; replay/rollback
        // must keep every structure consistent and the drain must still
        // finish.
        let mut t = Picos::from_us(3);
        let mut interrupted = 0u64;
        for round in 0..400u64 {
            t += Picos::from_us(200);
            dev.tick(t).unwrap();
            if round % 3 == 0 {
                let r = dev.inject_migration_interrupt(loc.channel, t).unwrap();
                if r != MigrationInterrupt::Idle {
                    interrupted += 1;
                }
            }
            dev.check_invariants().unwrap();
            if dev.migrations_pending() == 0 && dev.powerdown_stats().ranks_retired > 0 {
                break;
            }
        }
        assert!(interrupted > 0, "interrupts must hit in-flight drains");
        assert_eq!(dev.stats().migration_interrupts, interrupted);
        // Let any tail work finish.
        for _ in 0..200 {
            t += Picos::from_ms(1);
            dev.tick(t).unwrap();
            if dev.migrations_pending() == 0 {
                break;
            }
        }
        assert_eq!(dev.powerdown_stats().ranks_retired, 1, "drain survives interruptions");
        assert_eq!(dev.rank_health(loc.channel, loc.rank), RankHealth::Retired);
        dev.access(HostId(0), vm.hpa_base(0, au_bytes()), AccessKind::Read, t).unwrap();
        dev.check_invariants().unwrap();
    }

    #[test]
    fn a_finished_job_nobody_enqueued_is_an_internal_error() {
        let kind = MigrationKind::Copy { src: Dsn(0), dst: Dsn(1) };
        let err = device().finish_job(999, kind, Picos::ZERO).unwrap_err();
        assert!(matches!(err, DtlError::Internal { reason } if reason.contains("no origin")));
    }

    #[test]
    fn interrupt_on_idle_channel_is_harmless() {
        let mut dev = device();
        let r = dev.inject_migration_interrupt(0, Picos::ZERO).unwrap();
        assert_eq!(r, MigrationInterrupt::Idle);
        assert_eq!(dev.stats().migration_interrupts, 0);
        dev.check_invariants().unwrap();
    }
}

#[cfg(test)]
mod snapshot_tests {
    use super::*;
    use crate::backend::AnalyticBackend;

    #[test]
    fn snapshot_reflects_device_state() {
        let cfg = DtlConfig::tiny();
        let mut dev = DtlDevice::with_analytic_geometry(cfg, 2, 4, 32);
        dev.set_hotness_enabled(false);
        dev.register_host(HostId(0)).unwrap();
        dev.register_host(HostId(1)).unwrap();
        let vm = dev.alloc_vm(HostId(0), cfg.au_bytes, Picos::ZERO).unwrap();
        let snap = dev.snapshot();
        assert_eq!(snap.ranks.len(), 8);
        assert_eq!(snap.hosts.len(), 2);
        assert_eq!(snap.hosts[0].vms, 1);
        assert_eq!(snap.hosts[0].aus, 1);
        assert_eq!(snap.hosts[1].vms, 0);
        assert_eq!(snap.mapped_segments, cfg.segments_per_au());
        let allocated: u64 = snap.ranks.iter().map(|r| r.allocated_segments).sum();
        assert_eq!(allocated, cfg.segments_per_au());
        let total: u64 = snap.ranks.iter().map(|r| r.allocated_segments + r.free_segments).sum();
        assert_eq!(total, 2 * 4 * 32);
        // Power-down after dealloc shows up in the snapshot.
        dev.dealloc_vm(vm.handle, Picos::from_us(1)).unwrap();
        for i in 0..100 {
            dev.tick(Picos::from_ms(1) * (i + 1)).unwrap();
        }
        let snap = dev.snapshot();
        assert!(snap
            .ranks
            .iter()
            .any(|r| r.power == PowerState::Mpsm && r.lifecycle == RankPdState::PoweredDown));
        assert_eq!(snap.mapped_segments, 0);
        // It serializes (management-plane export).
        let json = serde_json::to_string(&snap).unwrap();
        let back: DeviceSnapshot = serde_json::from_str(&json).unwrap();
        assert_eq!(back, snap);
        let _ = AnalyticBackend::new(
            dev.geometry(),
            cfg.segment_bytes,
            dtl_dram::PowerParams::ddr4_128gb_dimm(),
        );
    }

    #[test]
    fn snapshot_shows_hotness_roles() {
        let cfg = DtlConfig::tiny();
        let mut dev = DtlDevice::with_analytic_geometry(cfg, 2, 4, 32);
        dev.set_powerdown_enabled(false);
        dev.register_host(HostId(0)).unwrap();
        let _vm = dev.alloc_vm(HostId(0), cfg.au_bytes, Picos::ZERO).unwrap();
        // Let the hotness engine sample and park an idle victim.
        let mut t = Picos::from_us(1);
        for _ in 0..2000 {
            t += Picos::from_us(10);
            dev.tick(t).unwrap();
        }
        let snap = dev.snapshot();
        let sr = snap.ranks.iter().filter(|r| r.hotness == HotnessRole::SelfRefreshing).count();
        assert!(sr >= 1, "some rank should be self-refreshing: {snap:?}");
    }
}

#[cfg(test)]
mod write_conflict_tests {
    use super::*;

    /// Drives a live-data drain and hammers the migrating segments with
    /// writes: the §4.2 protocol must reroute completion-bit-window writes
    /// and abort jobs whose copied lines were dirtied — all visible
    /// through the device stats, with invariants intact throughout.
    #[test]
    fn foreground_writes_conflict_with_live_drains() {
        let cfg = DtlConfig::tiny();
        let mut dev = DtlDevice::with_analytic_geometry(cfg, 2, 4, 32);
        dev.set_hotness_enabled(false);
        dev.register_host(HostId(0)).unwrap();
        // Fill rank A with vm1+vm2, rank B with vm3; dealloc vm2 and pump
        // power-down until a drain must move live data.
        let vm1 = dev.alloc_vm(HostId(0), cfg.au_bytes, Picos::ZERO).unwrap();
        let vm2 = dev.alloc_vm(HostId(0), cfg.au_bytes, Picos::ZERO).unwrap();
        let vm3 = dev.alloc_vm(HostId(0), cfg.au_bytes, Picos::ZERO).unwrap();
        dev.dealloc_vm(vm2.handle, Picos::from_us(1)).unwrap();
        // Drive ticks; each dealloc-free plan stacks, eventually draining a
        // loaded rank. Write continuously to vm1 and vm3 segments.
        let mut t = Picos::from_us(2);
        let seg = cfg.segment_bytes;
        let mut wrote_during_migration = false;
        for round in 0..4000u64 {
            t += Picos::from_us(2);
            if round % 8 == 0 {
                dev.tick(t).unwrap();
            }
            for vm in [&vm1, &vm3] {
                let base = vm.hpa_base(0, cfg.au_bytes);
                let hpa = base.offset_by((round % 32) * seg);
                dev.access(HostId(0), hpa, AccessKind::Write, t).unwrap();
            }
            if dev.migrations_pending() > 0 {
                wrote_during_migration = true;
            }
            // Keep re-triggering power-down planning via a dealloc cycle.
            if round == 100 {
                let vm4 = dev.alloc_vm(HostId(0), cfg.au_bytes, t).unwrap();
                dev.dealloc_vm(vm4.handle, t).unwrap();
            }
            dev.check_invariants().unwrap();
        }
        assert!(wrote_during_migration, "the scenario must overlap writes with drains");
        let s = dev.stats();
        assert!(
            s.aborting_writes + s.rerouted_writes > 0,
            "the conflict protocol must trigger: {s:?}"
        );
        assert!(dev.migration_stats().aborts == s.aborting_writes);
        // Everything still reachable afterwards.
        for _ in 0..200 {
            t += Picos::from_ms(1);
            dev.tick(t).unwrap();
        }
        for vm in [&vm1, &vm3] {
            for k in 0..32u64 {
                dev.access(
                    HostId(0),
                    vm.hpa_base(0, cfg.au_bytes).offset_by(k * seg),
                    AccessKind::Read,
                    t,
                )
                .unwrap();
            }
        }
        dev.check_invariants().unwrap();
    }
}

#[cfg(test)]
mod balloon_tests {
    use super::*;
    use crate::backend::AnalyticBackend;

    fn device() -> DtlDevice<AnalyticBackend> {
        let cfg = DtlConfig::tiny();
        let mut dev = DtlDevice::with_analytic_geometry(cfg, 2, 4, 32);
        dev.set_hotness_enabled(false);
        dev.register_host(HostId(0)).unwrap();
        dev
    }

    fn au_bytes() -> u64 {
        DtlConfig::tiny().au_bytes
    }

    #[test]
    fn grow_extends_the_vm() {
        let mut dev = device();
        let vm = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        let new_aus = dev.grow_vm(vm.handle, 2 * au_bytes(), Picos::from_us(1)).unwrap();
        assert_eq!(new_aus.len(), 2);
        // All three AU regions translate.
        for au in vm.aus.iter().chain(new_aus.iter()) {
            let hpa = HostPhysAddr::new(u64::from(au.0) * au_bytes());
            dev.access(HostId(0), hpa, AccessKind::Read, Picos::from_us(2)).unwrap();
        }
        let snap = dev.snapshot();
        assert_eq!(snap.hosts[0].vms, 1);
        assert_eq!(snap.hosts[0].aus, 3);
        dev.check_invariants().unwrap();
        // Dealloc releases everything, including the grown AUs.
        dev.dealloc_vm(vm.handle, Picos::from_us(3)).unwrap();
        assert_eq!(dev.snapshot().mapped_segments, 0);
        dev.check_invariants().unwrap();
    }

    #[test]
    fn shrink_releases_the_top_aus() {
        let mut dev = device();
        let vm = dev.alloc_vm(HostId(0), 3 * au_bytes(), Picos::ZERO).unwrap();
        let kept = vm.aus[0];
        let dropped = vm.aus[2];
        dev.shrink_vm(vm.handle, 2, Picos::from_us(1)).unwrap();
        // The kept AU still works; the dropped one is unmapped.
        dev.access(
            HostId(0),
            HostPhysAddr::new(u64::from(kept.0) * au_bytes()),
            AccessKind::Read,
            Picos::from_us(2),
        )
        .unwrap();
        let err = dev.access(
            HostId(0),
            HostPhysAddr::new(u64::from(dropped.0) * au_bytes()),
            AccessKind::Read,
            Picos::from_us(3),
        );
        assert!(matches!(err, Err(DtlError::UnmappedAddress { .. })));
        dev.check_invariants().unwrap();
        // Shrinking to zero is refused; dealloc still works.
        assert!(dev.shrink_vm(vm.handle, 1, Picos::from_us(4)).is_err());
        dev.dealloc_vm(vm.handle, Picos::from_us(5)).unwrap();
        dev.check_invariants().unwrap();
    }

    #[test]
    fn shrink_can_trigger_power_down() {
        let mut dev = device();
        // Fill most of the device, then shrink hard: the freed capacity
        // lets a rank group power down.
        let vm = dev.alloc_vm(HostId(0), 6 * au_bytes(), Picos::ZERO).unwrap();
        assert_eq!(dev.powerdown_stats().groups_powered_down, 0);
        dev.shrink_vm(vm.handle, 5, Picos::from_us(1)).unwrap();
        let mut t = Picos::from_us(2);
        for _ in 0..200 {
            t += Picos::from_ms(1);
            dev.tick(t).unwrap();
        }
        assert!(dev.powerdown_stats().groups_powered_down > 0);
        dev.check_invariants().unwrap();
    }

    #[test]
    fn quota_gates_alloc_and_grow() {
        let mut dev = device();
        dev.set_host_quota(HostId(0), Some(2)).unwrap();
        let vm = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        // A second AU fits; a third does not.
        dev.grow_vm(vm.handle, au_bytes(), Picos::from_us(1)).unwrap();
        assert!(matches!(
            dev.grow_vm(vm.handle, au_bytes(), Picos::from_us(2)),
            Err(DtlError::QuotaExceeded { .. })
        ));
        assert!(matches!(
            dev.alloc_vm(HostId(0), au_bytes(), Picos::from_us(3)),
            Err(DtlError::QuotaExceeded { .. })
        ));
        // Shrinking frees quota headroom.
        dev.shrink_vm(vm.handle, 1, Picos::from_us(4)).unwrap();
        dev.alloc_vm(HostId(0), au_bytes(), Picos::from_us(5)).unwrap();
        // Clearing the quota lifts the cap.
        dev.set_host_quota(HostId(0), None).unwrap();
        dev.alloc_vm(HostId(0), 2 * au_bytes(), Picos::from_us(6)).unwrap();
        dev.check_invariants().unwrap();
    }

    #[test]
    fn quota_does_not_affect_other_hosts() {
        let mut dev = device();
        dev.register_host(HostId(1)).unwrap();
        dev.set_host_quota(HostId(0), Some(1)).unwrap();
        dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        assert!(dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).is_err());
        // Host 1 is unconstrained.
        dev.alloc_vm(HostId(1), 3 * au_bytes(), Picos::ZERO).unwrap();
        dev.check_invariants().unwrap();
    }

    #[test]
    fn grow_of_stale_handle_rejected() {
        let mut dev = device();
        let vm = dev.alloc_vm(HostId(0), au_bytes(), Picos::ZERO).unwrap();
        dev.dealloc_vm(vm.handle, Picos::from_us(1)).unwrap();
        assert!(matches!(
            dev.grow_vm(vm.handle, au_bytes(), Picos::from_us(2)),
            Err(DtlError::UnknownVm(_))
        ));
        assert!(matches!(
            dev.shrink_vm(vm.handle, 1, Picos::from_us(3)),
            Err(DtlError::UnknownVm(_))
        ));
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;
    use crate::backend::AnalyticBackend;
    use dtl_dram::REFRESH_POSTPONE_BUDGET;
    use std::collections::HashMap;

    fn device_with(policy: PowerPolicyKind) -> DtlDevice<AnalyticBackend> {
        let mut cfg = DtlConfig::tiny();
        cfg.power_policy = policy;
        let mut dev = DtlDevice::with_analytic_geometry(cfg, 2, 4, 32);
        dev.register_host(HostId(0)).unwrap();
        dev.set_hotness_enabled(false);
        dev
    }

    fn residency(report: &PowerReport, c: usize, r: usize, s: PowerState) -> Picos {
        report.residency[c][r][PowerState::ALL.iter().position(|x| *x == s).unwrap()]
    }

    /// Satellite 4 regression: parking a rank that sits below standby on
    /// the retention ladder must bridge through standby at the *exit
    /// completion* time. The MPSM entry used to be issued at the request
    /// instant, back-dating it into the exit window: an out-of-order
    /// command stream, and the 5 ns standby bridge silently charged to
    /// the deeper state.
    #[test]
    fn parking_ladder_ranks_orders_events_and_charges_the_bridge() {
        let mut dev = device_with(PowerPolicyKind::FixedThreshold);
        dev.backend_mut().set_rank_state(0, 1, PowerState::SelfRefresh, Picos::ZERO).unwrap();
        dev.backend_mut().set_rank_state(0, 2, PowerState::ActivePowerDown, Picos::ZERO).unwrap();
        dev.set_command_tap(true);
        dev.drain_commands(); // discard the setup transitions

        let park = Picos::from_us(1);
        dev.request_power_down(park).unwrap();

        // Per-rank command streams must be time-ordered and coherent.
        let cmds = dev.drain_commands();
        let mut last_at: HashMap<(u32, u32), (Picos, PowerState)> = HashMap::new();
        for cmd in &cmds {
            if let DeviceCommand::PowerTransition { channel, rank, from, to, at, .. } = cmd {
                if let Some((prev_at, prev_to)) = last_at.get(&(*channel, *rank)) {
                    assert!(at >= prev_at, "rank ch{channel}/rk{rank} stream out of order");
                    assert_eq!(from, prev_to, "rank ch{channel}/rk{rank} stream incoherent");
                }
                last_at.insert((*channel, *rank), (*at, *to));
            }
        }
        // Self-refresh exit takes 560 ns, then a 5 ns MPSM entry.
        assert_eq!(last_at[&(0, 1)].0, park + Picos::from_ns(565));
        assert_eq!(last_at[&(0, 1)].1, PowerState::Mpsm);
        // Shallow exit takes 7 ns, then the same 5 ns entry.
        assert_eq!(last_at[&(0, 2)].0, park + Picos::from_ns(12));

        // The standby bridge lands in standby, exactly once: 5 ns initial
        // entry window plus the 5 ns bridge, and every picosecond of the
        // horizon in exactly one state.
        let horizon = Picos::from_us(2);
        let report = dev.backend_mut().power_report(horizon);
        assert_eq!(residency(&report, 0, 1, PowerState::Standby), Picos::from_ns(10));
        assert_eq!(
            residency(&report, 0, 1, PowerState::SelfRefresh),
            Picos::from_ns(1560) - Picos::from_ns(5)
        );
        assert_eq!(
            residency(&report, 0, 1, PowerState::Mpsm),
            horizon - park - Picos::from_ns(565)
        );
        let total: Picos = PowerState::ALL.iter().map(|s| residency(&report, 0, 1, *s)).sum();
        assert_eq!(total, horizon);
        dev.check_invariants().unwrap();
    }

    /// The adaptive policy walks idle ranks one rung per pump down
    /// standby -> active power-down -> precharge power-down ->
    /// self-refresh, and the next access wakes them transparently.
    /// The pump skips a rank that is an endpoint of a migration; its
    /// deadline used not to. An event-driven driver was then told "now"
    /// for as long as the drain lasted, and never advanced.
    #[test]
    fn a_ladder_deadline_names_only_ranks_the_pump_acts_on() {
        for kind in [PowerPolicyKind::AdaptiveDemotion, PowerPolicyKind::RefreshAware] {
            let mut dev = device_with(kind);
            let au = dev.config().au_bytes;
            let first = dev.alloc_vm(HostId(0), au, Picos::ZERO).unwrap();
            for _ in 0..2 {
                dev.alloc_vm(HostId(0), au, Picos::ZERO).unwrap();
            }
            let mut t = Picos::from_us(100);
            dev.dealloc_vm(first.handle, t).unwrap();
            assert_eq!(dev.migrations_pending(), 32, "a drain into an idle rank");
            let mut steps = 0;
            while let Some(at) = dev.next_activity_at() {
                steps += 1;
                assert!(steps < 1000, "{kind:?}: the driver spins at {t}");
                t = t.max(at);
                let due = dev.power.next_deadline(&dev.backend, &dev.migrate);
                let demotions = dev.policy_demotions();
                dev.tick(t).unwrap();
                if due.is_some_and(|due| due <= t) {
                    assert!(dev.policy_demotions() > demotions, "{kind:?}: idle pump at {t}");
                }
            }
            assert_eq!(dev.migrations_pending(), 0);
            assert!(dev.policy_demotions() > 0);
            dev.check_invariants().unwrap();
        }
    }

    #[test]
    fn adaptive_policy_demotes_idle_ranks_and_access_wakes_them() {
        let mut dev = device_with(PowerPolicyKind::AdaptiveDemotion);
        assert_eq!(dev.power_policy(), PowerPolicyKind::AdaptiveDemotion);
        // Cold history: the threshold floor is base/64 ~ 7.8 us (tiny
        // profile_threshold = 500 us), scaled 4x per rung.
        dev.tick(Picos::from_us(10)).unwrap();
        assert_eq!(dev.backend().rank_state(0, 0), PowerState::ActivePowerDown);
        dev.tick(Picos::from_us(40)).unwrap();
        assert_eq!(dev.backend().rank_state(0, 0), PowerState::PrechargePowerDown);
        dev.tick(Picos::from_us(130)).unwrap();
        assert_eq!(dev.backend().rank_state(0, 0), PowerState::SelfRefresh);
        // Every rank bottomed out: 8 ranks x 3 rungs.
        assert_eq!(dev.policy_demotions(), 24);
        dev.check_invariants().unwrap();

        let vm = dev.alloc_vm(HostId(0), dev.config().au_bytes, Picos::from_us(200)).unwrap();
        let hpa = vm.hpa_base(0, dev.config().au_bytes);
        let out = dev.access(HostId(0), hpa, AccessKind::Read, Picos::from_us(200)).unwrap();
        let loc = dev.geometry().location(out.dsn);
        assert_eq!(dev.backend().rank_state(loc.channel, loc.rank), PowerState::Standby);
    }

    /// Fixed threshold is bit-compatible: the pump never fires, and the
    /// event-driven deadline only appears once a real policy is active.
    #[test]
    fn fixed_threshold_is_inert_and_switching_arms_the_pump() {
        let mut dev = device_with(PowerPolicyKind::FixedThreshold);
        assert_eq!(dev.next_activity_at(), None);
        dev.tick(Picos::from_ms(1)).unwrap();
        assert_eq!(dev.policy_demotions(), 0);
        assert_eq!(dev.backend().rank_state(0, 0), PowerState::Standby);

        dev.set_power_policy(PowerPolicyKind::AdaptiveDemotion);
        let deadline = dev.next_activity_at().expect("a policy deadline must appear");
        assert!(deadline <= Picos::from_ms(1) + Picos::from_us(8));
        dev.tick(Picos::from_ms(1) + Picos::from_us(10)).unwrap();
        assert!(dev.policy_demotions() > 0);
        assert_eq!(dev.backend().rank_state(0, 0), PowerState::ActivePowerDown);
    }

    /// Refresh postponement is the refresh-aware policy's lever alone:
    /// other policies decline, the budget caps grants, and out-of-range
    /// coordinates are rejected.
    #[test]
    fn refresh_postponement_respects_policy_and_budget() {
        let mut dev = device_with(PowerPolicyKind::FixedThreshold);
        assert!(!dev.postpone_refresh(0, 0, Picos::from_us(1)).unwrap());

        dev.set_power_policy(PowerPolicyKind::RefreshAware);
        for i in 0..u64::from(REFRESH_POSTPONE_BUDGET) {
            assert!(
                dev.postpone_refresh(0, 0, Picos::from_us(1 + i)).unwrap(),
                "grant {i} within budget"
            );
        }
        assert!(!dev.postpone_refresh(0, 0, Picos::from_us(20)).unwrap());
        assert!(dev.postpone_refresh(9, 9, Picos::from_us(21)).is_err());
    }
}
