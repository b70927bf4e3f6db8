//! The scenario driver: the one way a VM schedule is replayed against DTL
//! memory, whatever the memory is and whatever rides along.
//!
//! * a [`World`] is the memory under test — a [`DtlDevice`] or a
//!   [`MemoryPool`] — seen as "admit a VM, release a VM, tick";
//! * a [`Lane`] carries exactly-timed side work (fault injection) that must
//!   not be quantized onto the tick grid; `()` is the empty lane;
//! * the [`Clock`] is one [`Simulation`] for the whole run: grid ticks and
//!   lane deadlines are both posted events, so the event queue is the single
//!   source of simulated time and its counters (`sim.queue.*`) are
//!   cumulative over the run;
//! * [`Tenants`] is the one place a [`VmEvent`] is applied to a world;
//! * [`EpochHooks`] is what a harness adds around each 5-minute epoch
//!   (bulk foreground traffic, power sampling), and [`replay_epochs`] is the
//!   loop that ties the five together.
//!
//! **Post order is behaviour.** The queue pops co-timed events in post
//! order, so [`Clock::run`] fixes it: the first tick of an epoch is posted
//! before the lane's first deadline, each tick posts its successor, and the
//! lane re-posts only after it fires. A lane deadline that ties with a tick
//! instant therefore fires *after* that tick if the tick was already queued
//! when the deadline was posted (the epoch's first tick, or the lane last
//! fired less than one step earlier) and *before* it otherwise — "all lane
//! work before the tick" would be a different simulation.

use dtl_core::{DtlDevice, DtlError, HostId, MemoryBackend, VmHandle};
use dtl_dram::{FastMap, FastSet, Picos};
use dtl_event::{QueueStats, Simulation};
use dtl_pool::{MemoryPool, PoolError, PoolVmId};
use dtl_trace::{VmEvent, VmEventKind, VmId, VmSchedule};

/// Schedule events apply, and hooks sample, every 5 minutes.
pub const EPOCH: Picos = Picos::from_secs(300);
/// The world's tick grid inside an epoch.
pub const TICK_STEP: Picos = Picos::from_secs(10);

/// DTL memory a schedule can be replayed against.
pub trait World {
    /// Handle of an admitted VM.
    type Vm;

    /// Admits a VM of `bytes` on behalf of `host`. `Ok(None)` means the
    /// world has no capacity for it: AU rounding and fault-driven capacity
    /// loss can both push a schedule synthesized at the capacity edge over
    /// it, and the real cluster scheduler would place such a VM elsewhere.
    ///
    /// # Errors
    ///
    /// Any failure other than lack of capacity.
    fn admit(&mut self, host: HostId, bytes: u64, now: Picos)
        -> Result<Option<Self::Vm>, DtlError>;

    /// Releases an admitted VM.
    ///
    /// # Errors
    ///
    /// Propagates the world's error.
    fn release(&mut self, vm: Self::Vm, now: Picos) -> Result<(), DtlError>;

    /// Advances the world's engines (migrations, power, health) to `now`.
    ///
    /// # Errors
    ///
    /// Propagates the world's error.
    fn tick(&mut self, now: Picos) -> Result<(), DtlError>;
}

impl<B: MemoryBackend> World for DtlDevice<B> {
    type Vm = VmHandle;

    fn admit(
        &mut self,
        host: HostId,
        bytes: u64,
        now: Picos,
    ) -> Result<Option<VmHandle>, DtlError> {
        match self.alloc_vm(host, bytes, now) {
            Ok(alloc) => Ok(Some(alloc.handle)),
            Err(DtlError::OutOfCapacity { .. }) => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn release(&mut self, vm: VmHandle, now: Picos) -> Result<(), DtlError> {
        self.dealloc_vm(vm, now)
    }

    fn tick(&mut self, now: Picos) -> Result<(), DtlError> {
        DtlDevice::tick(self, now)
    }
}

impl<B: MemoryBackend> World for MemoryPool<B> {
    type Vm = PoolVmId;

    fn admit(
        &mut self,
        host: HostId,
        bytes: u64,
        now: Picos,
    ) -> Result<Option<PoolVmId>, DtlError> {
        match self.alloc_vm(host, bytes, now) {
            Ok(id) => Ok(Some(id)),
            Err(PoolError::NoCapacity { .. }) => Ok(None),
            Err(e) => Err(e.into()),
        }
    }

    fn release(&mut self, vm: PoolVmId, now: Picos) -> Result<(), DtlError> {
        Ok(self.dealloc_vm(vm, now)?)
    }

    fn tick(&mut self, now: Picos) -> Result<(), DtlError> {
        Ok(MemoryPool::tick(self, now)?)
    }
}

/// Exactly-timed side work riding the clock beside the tick grid.
pub trait Lane<W> {
    /// The next instant the lane has work for, if any. Queried when an
    /// epoch is seeded and after every [`Lane::fire`].
    fn next_at(&self) -> Option<Picos>;

    /// Releases all work due at `now`.
    ///
    /// # Errors
    ///
    /// An error aborts the run.
    fn fire(&mut self, world: &mut W, now: Picos) -> Result<(), DtlError>;
}

/// The empty lane.
impl<W> Lane<W> for () {
    fn next_at(&self) -> Option<Picos> {
        None
    }

    fn fire(&mut self, _: &mut W, _: Picos) -> Result<(), DtlError> {
        Ok(())
    }
}

#[derive(Debug, Clone, Copy)]
enum Ev {
    Tick,
    Lane,
}

/// One event-spine clock for a whole run. It outlives every
/// [`Clock::run`] span, so time stays monotonic and the queue counters are
/// the run's totals.
#[derive(Debug)]
pub struct Clock {
    sim: Simulation<Ev>,
}

impl Default for Clock {
    fn default() -> Self {
        Clock { sim: Simulation::new(Picos::ZERO) }
    }
}

impl Clock {
    /// The event queue's counters so far.
    pub fn queue_stats(&self) -> QueueStats {
        self.sim.queue_stats()
    }

    /// Drives `world` over `start..=end`: ticks at `start + step,
    /// start + 2·step, …` — the last one lands on `end` or, for a step that
    /// does not divide the span, just past it, exactly as the loop
    /// `while t < end { t += step; tick(t) }` would — each followed by
    /// `after_tick`, plus every `lane` deadline `<= end` at its exact
    /// instant. A deadline past `end` is left for the next span to seed.
    /// The queue is drained on return. See the module docs for the order of
    /// co-timed events.
    ///
    /// # Errors
    ///
    /// Propagates the first error of `world` or `lane`.
    pub fn run<W: World, L: Lane<W>>(
        &mut self,
        world: &mut W,
        lane: &mut L,
        (start, end, step): (Picos, Picos, Picos),
        mut after_tick: impl FnMut(&mut W, Picos),
    ) -> Result<(), DtlError> {
        if start >= end {
            return Ok(());
        }
        self.sim.post(start + step, Ev::Tick);
        if let Some(at) = lane.next_at().filter(|&at| at <= end) {
            self.sim.post(at, Ev::Lane);
        }
        while let Some((now, ev)) = self.sim.pop_next() {
            match ev {
                Ev::Tick => {
                    world.tick(now)?;
                    after_tick(world, now);
                    if now < end {
                        self.sim.post(now + step, Ev::Tick);
                    }
                }
                Ev::Lane => {
                    lane.fire(world, now)?;
                    if let Some(at) = lane.next_at().filter(|&at| at <= end) {
                        self.sim.post(at, Ev::Lane);
                    }
                }
            }
        }
        Ok(())
    }
}

/// The VMs a replay has placed on a world, and the only code that applies
/// a [`VmEvent`] to one.
#[derive(Debug)]
pub struct Tenants<V> {
    hosts: u32,
    live: FastMap<VmId, (V, u32, u64)>,
    turned_away: FastSet<VmId>,
    committed_bytes: u64,
    vcpus: u32,
    placed: u64,
    rejected: u64,
}

impl<V> Tenants<V> {
    /// No VMs yet; allocations will land round-robin on `hosts` compute
    /// hosts (`HostId(0)..`, at least one).
    pub fn new(hosts: u16) -> Self {
        Tenants {
            hosts: u32::from(hosts.max(1)),
            live: FastMap::default(),
            turned_away: FastSet::default(),
            committed_bytes: 0,
            vcpus: 0,
            placed: 0,
            rejected: 0,
        }
    }

    /// Applies one schedule event at `now`: an allocation is admitted on
    /// host `vm id mod hosts` or counted as rejected; a deallocation
    /// releases the VM, or is skipped if its admission was rejected.
    ///
    /// # Errors
    ///
    /// Propagates the world's error.
    pub fn apply<W: World<Vm = V>>(
        &mut self,
        world: &mut W,
        ev: &VmEvent,
        now: Picos,
    ) -> Result<(), DtlError> {
        match ev.kind {
            VmEventKind::Alloc(vm) => {
                let host = HostId((vm.id.0 % self.hosts) as u16);
                if let Some(handle) = world.admit(host, vm.mem_bytes, now)? {
                    self.placed += 1;
                    self.committed_bytes += vm.mem_bytes;
                    self.vcpus += vm.vcpus;
                    self.live.insert(vm.id, (handle, vm.vcpus, vm.mem_bytes));
                } else {
                    self.rejected += 1;
                    self.turned_away.insert(vm.id);
                }
            }
            VmEventKind::Dealloc(id) => {
                if let Some((handle, vcpus, bytes)) = self.live.remove(&id) {
                    world.release(handle, now)?;
                    self.committed_bytes -= bytes;
                    self.vcpus -= vcpus;
                } else {
                    debug_assert!(self.turned_away.remove(&id), "dealloc of unknown VM");
                }
            }
        }
        Ok(())
    }

    /// Memory of the live VMs, bytes.
    pub fn committed_bytes(&self) -> u64 {
        self.committed_bytes
    }

    /// vCPUs of the live VMs.
    pub fn vcpus(&self) -> u32 {
        self.vcpus
    }

    /// VMs admitted so far.
    pub fn placed(&self) -> u64 {
        self.placed
    }

    /// VM admissions rejected for capacity so far.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }
}

/// One 5-minute epoch of [`replay_epochs`], after its schedule events were
/// applied.
#[derive(Debug, Clone, Copy)]
pub struct Epoch {
    /// Epoch start, minutes.
    pub t_min: u32,
    /// Epoch start instant.
    pub start: Picos,
    /// Epoch end instant.
    pub end: Picos,
    /// Committed VM memory over the epoch, bytes.
    pub committed_bytes: u64,
    /// vCPUs of the VMs live over the epoch.
    pub vcpus: u32,
}

/// What a harness does around the epochs of [`replay_epochs`].
pub trait EpochHooks<W> {
    /// Called after the epoch's schedule events, before its first tick.
    ///
    /// # Errors
    ///
    /// An error aborts the replay.
    fn begin(&mut self, world: &mut W, epoch: &Epoch) -> Result<(), DtlError>;

    /// Called after every grid tick of the epoch.
    fn after_tick(&mut self, world: &mut W, now: Picos) {
        let _ = (world, now);
    }

    /// Called after the epoch's last tick.
    fn end(&mut self, world: &mut W, epoch: &Epoch) {
        let _ = (world, epoch);
    }
}

/// The simulated span of a `duration_min`-minute schedule: the one place a
/// configured horizon becomes picoseconds.
///
/// # Errors
///
/// [`DtlError::InvalidConfig`] past 307 445 minutes (≈ 213 days), where
/// `u64` picosecond time would wrap and silently shorten the run.
pub fn horizon(duration_min: u32) -> Result<Picos, DtlError> {
    Picos::checked_from_secs(u64::from(duration_min) * 60).ok_or_else(|| DtlError::InvalidConfig {
        reason: format!(
            "a horizon of {duration_min} min wraps picosecond time (at most {} min)",
            Picos::MAX.as_ps() / Picos::from_secs(60).as_ps()
        ),
    })
}

/// Replays `schedule` against `world` in 5-minute epochs: apply the VM
/// events due at the epoch's start (round-robin over `hosts` compute
/// hosts), call `hooks.begin`, drive the 10 s tick grid and `lane` through
/// one [`Clock`], call `hooks.end`. Returns the final [`Tenants`] and the
/// clock's queue counters.
///
/// # Errors
///
/// Propagates the first error of the world, the lane or the hooks.
pub fn replay_epochs<W: World, L: Lane<W>, H: EpochHooks<W>>(
    world: &mut W,
    schedule: &VmSchedule,
    hosts: u16,
    lane: &mut L,
    hooks: &mut H,
) -> Result<(Tenants<W::Vm>, QueueStats), DtlError> {
    let mut tenants = Tenants::new(hosts);
    let mut clock = Clock::default();
    let mut events = schedule.events().iter().peekable();
    for t_min in (0..schedule.duration_min()).step_by(5) {
        let start = Picos::from_secs(u64::from(t_min) * 60);
        while let Some(ev) = events.next_if(|ev| ev.at_min <= t_min) {
            tenants.apply(world, ev, start)?;
        }
        let (committed_bytes, vcpus) = (tenants.committed_bytes, tenants.vcpus);
        let epoch = Epoch { t_min, start, end: start + EPOCH, committed_bytes, vcpus };
        hooks.begin(world, &epoch)?;
        clock.run(world, lane, (start, epoch.end, TICK_STEP), |w, now| hooks.after_tick(w, now))?;
        hooks.end(world, &epoch);
    }
    Ok((tenants, clock.queue_stats()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dtl_trace::VmSpec;

    fn secs(s: u64) -> Picos {
        Picos::from_secs(s)
    }

    #[test]
    fn horizon_is_checked_minutes_to_picoseconds() {
        assert_eq!(horizon(0).unwrap(), Picos::ZERO);
        assert_eq!(horizon(360).unwrap(), secs(360 * 60));
        // 307 445 min = 18 446 700 s is the last whole minute below 2^64 ps.
        assert_eq!(horizon(307_445).unwrap(), secs(18_446_700));
        for past in [307_446, u32::MAX] {
            match horizon(past) {
                Err(DtlError::InvalidConfig { reason }) => {
                    assert!(reason.contains("at most 307445 min"), "{reason}");
                }
                other => panic!("a wrapped horizon got through: {other:?}"),
            }
        }
    }

    /// A world that logs its ticks (`'t'`) and, through [`Pending`], the
    /// lane firings (`'l'`) in the order they happen.
    #[derive(Default)]
    struct Log(Vec<(char, Picos)>);

    impl Log {
        fn instants(&self, what: char) -> Vec<Picos> {
            self.0.iter().filter(|(w, _)| *w == what).map(|&(_, t)| t).collect()
        }
    }

    impl World for Log {
        type Vm = ();

        fn admit(&mut self, _: HostId, _: u64, _: Picos) -> Result<Option<()>, DtlError> {
            Ok(Some(()))
        }

        fn release(&mut self, (): (), _: Picos) -> Result<(), DtlError> {
            Ok(())
        }

        fn tick(&mut self, now: Picos) -> Result<(), DtlError> {
            self.0.push(('t', now));
            Ok(())
        }
    }

    /// A lane with a sorted list of deadlines.
    struct Pending(Vec<Picos>);

    impl Lane<Log> for Pending {
        fn next_at(&self) -> Option<Picos> {
            self.0.first().copied()
        }

        fn fire(&mut self, world: &mut Log, now: Picos) -> Result<(), DtlError> {
            self.0.retain(|&p| p > now);
            world.0.push(('l', now));
            Ok(())
        }
    }

    #[test]
    fn grid_matches_legacy_loop() {
        let (mut clock, mut log) = (Clock::default(), Log::default());
        let (end, step) = (secs(300), secs(10));
        clock.run(&mut log, &mut (), (Picos::ZERO, end, step), |_, _| {}).unwrap();
        // The legacy loop for this epoch.
        let mut expect = Vec::new();
        let mut t = Picos::ZERO;
        while t < end {
            t += step;
            expect.push(t);
        }
        assert_eq!(log.instants('t'), expect);
        assert!(log.instants('l').is_empty());
        assert_eq!(clock.sim.now(), end);
        assert_eq!(clock.sim.pending(), 0, "epoch drains its queue");
    }

    #[test]
    fn lane_fires_between_ticks_at_exact_instants() {
        let (mut clock, mut log) = (Clock::default(), Log::default());
        let mut lane = Pending(vec![secs(13), secs(13), secs(95)]);
        clock.run(&mut log, &mut lane, (Picos::ZERO, secs(100), secs(10)), |_, _| {}).unwrap();
        // Both 13 s entries release in one firing; 95 s gets its own.
        assert_eq!(log.instants('l'), vec![secs(13), secs(95)]);
        assert_eq!(log.instants('t').len(), 10);
    }

    #[test]
    fn lane_deadline_beyond_the_epoch_waits_for_the_next_seed() {
        let (mut clock, mut log) = (Clock::default(), Log::default());
        let mut lane = Pending(vec![secs(150)]);
        let step = secs(10);
        clock.run(&mut log, &mut lane, (Picos::ZERO, secs(100), step), |_, _| {}).unwrap();
        assert!(log.instants('l').is_empty(), "a deadline past the epoch must not fire early");
        clock.run(&mut log, &mut lane, (secs(100), secs(200), step), |_, _| {}).unwrap();
        assert_eq!(log.instants('l'), vec![secs(150)]);
    }

    #[test]
    fn a_tie_between_lane_and_tick_pops_in_post_order() {
        let around_30 = |deadlines: Vec<Picos>| {
            let (mut clock, mut log) = (Clock::default(), Log::default());
            let mut lane = Pending(deadlines);
            clock.run(&mut log, &mut lane, (Picos::ZERO, secs(50), secs(10)), |_, _| {}).unwrap();
            log.0.into_iter().filter(|&(_, t)| t == secs(30)).map(|(w, _)| w).collect::<String>()
        };
        // Posted at the seed, before the 20 s tick posts the 30 s one.
        assert_eq!(around_30(vec![secs(30)]), "lt");
        // Re-posted by the 25 s firing, after the 30 s tick was queued.
        assert_eq!(around_30(vec![secs(25), secs(30)]), "tl");
        // The epoch's first tick is posted before the lane's first deadline.
        let (mut clock, mut log) = (Clock::default(), Log::default());
        let mut lane = Pending(vec![secs(10)]);
        clock.run(&mut log, &mut lane, (Picos::ZERO, secs(50), secs(10)), |_, _| {}).unwrap();
        assert_eq!(log.0[..2], [('t', secs(10)), ('l', secs(10))]);
    }

    /// A world of fixed capacity that logs which host each admission
    /// was for.
    struct Capacity {
        free: u64,
        admitted_for: Vec<HostId>,
    }

    impl World for Capacity {
        type Vm = u64;

        fn admit(&mut self, host: HostId, bytes: u64, _: Picos) -> Result<Option<u64>, DtlError> {
            if bytes > self.free {
                return Ok(None);
            }
            self.free -= bytes;
            self.admitted_for.push(host);
            Ok(Some(bytes))
        }

        fn release(&mut self, bytes: u64, _: Picos) -> Result<(), DtlError> {
            self.free += bytes;
            Ok(())
        }

        fn tick(&mut self, _: Picos) -> Result<(), DtlError> {
            Ok(())
        }
    }

    fn alloc(id: u32, vcpus: u32, mem_bytes: u64) -> VmEvent {
        let spec = VmSpec { id: VmId(id), vcpus, mem_bytes, lifetime_min: 5 };
        VmEvent { at_min: 0, kind: VmEventKind::Alloc(spec) }
    }

    fn dealloc(id: u32) -> VmEvent {
        VmEvent { at_min: 5, kind: VmEventKind::Dealloc(VmId(id)) }
    }

    #[test]
    fn tenants_place_round_robin_and_skip_rejected_deallocs() {
        let mut world = Capacity { free: 10, admitted_for: Vec::new() };
        let mut tenants = Tenants::new(3);
        let t = Picos::ZERO;
        for ev in [alloc(0, 2, 4), alloc(1, 1, 4), alloc(2, 8, 4), alloc(4, 1, 2)] {
            tenants.apply(&mut world, &ev, t).unwrap();
        }
        // VM 2 does not fit; VM 4 lands on host 4 mod 3.
        assert_eq!(world.admitted_for, vec![HostId(0), HostId(1), HostId(1)]);
        assert_eq!((tenants.placed(), tenants.rejected()), (3, 1));
        assert_eq!((tenants.committed_bytes(), tenants.vcpus()), (10, 4));
        for ev in [dealloc(2), dealloc(0), dealloc(1), dealloc(4)] {
            tenants.apply(&mut world, &ev, t).unwrap();
        }
        assert_eq!((tenants.placed(), tenants.rejected()), (3, 1), "the skip is not a rejection");
        assert_eq!((tenants.committed_bytes(), tenants.vcpus()), (0, 0));
        assert_eq!(world.free, 10, "the rejected VM's dealloc released nothing");
    }

    #[test]
    fn tenants_treat_zero_hosts_as_one() {
        let mut world = Capacity { free: 8, admitted_for: Vec::new() };
        let mut tenants = Tenants::new(0);
        tenants.apply(&mut world, &alloc(7, 1, 8), Picos::ZERO).unwrap();
        assert_eq!(world.admitted_for, vec![HostId(0)]);
    }
}
