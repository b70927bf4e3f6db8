//! Property tests: the DTL device maintains its cross-structure invariants
//! (mapping consistency, allocator partitioning, no live data in MPSM, one
//! agreed state per rank) under arbitrary interleavings of VM lifecycle
//! events, quota changes, accesses, faults, power-policy changes and time,
//! starting from every power policy.

use dtl_core::{DtlConfig, DtlDevice, DtlError, HostId, HostPhysAddr, VmHandle};
use dtl_dram::{AccessKind, Picos, PowerPolicyKind};
use proptest::prelude::*;

#[derive(Debug, Clone)]
enum Op {
    Alloc { aus: u8 },
    Dealloc { idx: u8 },
    Access { vm_idx: u8, offset: u32, write: bool },
    Tick { us: u16 },
    Retire { channel: u8, rank: u8 },
    Grow { idx: u8 },
    Shrink { idx: u8 },
    SetPolicy { policy: u8 },
    Interrupt { channel: u8 },
    PostponeRefresh { channel: u8, rank: u8 },
    RequestPowerDown,
    SetQuota { aus: Option<u8> },
}

fn any_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (1u8..3).prop_map(|aus| Op::Alloc { aus }),
        4 => any::<u8>().prop_map(|idx| Op::Dealloc { idx }),
        4 => (any::<u8>(), any::<u32>(), any::<bool>())
            .prop_map(|(vm_idx, offset, write)| Op::Access { vm_idx, offset, write }),
        4 => (1u16..500).prop_map(|us| Op::Tick { us }),
        1 => (0u8..2, 0u8..4).prop_map(|(channel, rank)| Op::Retire { channel, rank }),
        2 => any::<u8>().prop_map(|idx| Op::Grow { idx }),
        2 => any::<u8>().prop_map(|idx| Op::Shrink { idx }),
        1 => any::<u8>().prop_map(|policy| Op::SetPolicy { policy }),
        2 => (0u8..2).prop_map(|channel| Op::Interrupt { channel }),
        1 => (0u8..2, 0u8..4).prop_map(|(channel, rank)| Op::PostponeRefresh { channel, rank }),
        1 => Just(Op::RequestPowerDown),
        1 => (0u8..12).prop_map(|aus| Op::SetQuota { aus: aus.checked_sub(2) }),
    ]
}

fn run_ops(ops: &[Op], policy: u8, hotness: bool, powerdown: bool) -> Result<(), TestCaseError> {
    let mut cfg = DtlConfig::tiny();
    cfg.power_policy = PowerPolicyKind::from_index(policy);
    let mut dev = DtlDevice::with_analytic_geometry(cfg, 2, 4, 32);
    dev.set_hotness_enabled(hotness);
    dev.set_powerdown_enabled(powerdown);
    dev.register_host(HostId(0)).unwrap();
    let mut now = Picos::from_ns(1);
    let mut vms: Vec<(VmHandle, u64)> = Vec::new(); // (handle, bytes)
    for op in ops {
        now += Picos::from_ns(50);
        match op {
            Op::Alloc { aus } => {
                match dev.alloc_vm(HostId(0), u64::from(*aus) * cfg.au_bytes, now) {
                    Ok(a) => vms.push((a.handle, a.bytes)),
                    Err(DtlError::OutOfCapacity { .. } | DtlError::QuotaExceeded { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("alloc: {e}"))),
                }
            }
            Op::Dealloc { idx } => {
                if vms.is_empty() {
                    continue;
                }
                let (h, _) = vms.swap_remove(*idx as usize % vms.len());
                dev.dealloc_vm(h, now).map_err(|e| TestCaseError::fail(format!("dealloc: {e}")))?;
            }
            Op::Access { vm_idx, offset, write } => {
                if vms.is_empty() {
                    continue;
                }
                let (h, bytes) = vms[*vm_idx as usize % vms.len()];
                // Host address space: the VM's AU ids are not exposed here,
                // so probe via the device: any offset within the VM's first
                // AU region. AU ids are recycled; address the whole host
                // space and tolerate unmapped probes.
                let hpa = HostPhysAddr::new(u64::from(*offset) % bytes);
                let kind = if *write { AccessKind::Write } else { AccessKind::Read };
                match dev.access(HostId(0), hpa, kind, now) {
                    Ok(_) | Err(DtlError::UnmappedAddress { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("access: {e}"))),
                }
                let _ = h;
            }
            Op::Tick { us } => {
                now += Picos::from_us(u64::from(*us));
                dev.tick(now).map_err(|e| TestCaseError::fail(format!("tick: {e}")))?;
            }
            Op::Grow { idx } => {
                if vms.is_empty() {
                    continue;
                }
                let slot = *idx as usize % vms.len();
                match dev.grow_vm(vms[slot].0, cfg.au_bytes, now) {
                    Ok(_) => vms[slot].1 += cfg.au_bytes,
                    Err(DtlError::OutOfCapacity { .. } | DtlError::QuotaExceeded { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("grow: {e}"))),
                }
            }
            Op::Shrink { idx } => {
                if vms.is_empty() {
                    continue;
                }
                let slot = *idx as usize % vms.len();
                match dev.shrink_vm(vms[slot].0, 1, now) {
                    Ok(()) => vms[slot].1 -= cfg.au_bytes,
                    Err(DtlError::Internal { .. }) => {} // would empty the VM
                    Err(e) => return Err(TestCaseError::fail(format!("shrink: {e}"))),
                }
            }
            Op::Retire { channel, rank } => {
                // Retirement may legitimately fail (already retired, no
                // capacity); any other error is a bug.
                match dev.retire_rank(u32::from(*channel), u32::from(*rank), now) {
                    Ok(())
                    | Err(DtlError::OutOfCapacity { .. })
                    | Err(DtlError::Internal { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("retire: {e}"))),
                }
            }
            Op::SetPolicy { policy } => dev.set_power_policy(PowerPolicyKind::from_index(*policy)),
            Op::Interrupt { channel } => {
                dev.inject_migration_interrupt(u32::from(*channel), now)
                    .map_err(|e| TestCaseError::fail(format!("interrupt: {e}")))?;
            }
            Op::PostponeRefresh { channel, rank } => {
                // A declined postponement is a legitimate outcome.
                dev.postpone_refresh(u32::from(*channel), u32::from(*rank), now)
                    .map_err(|e| TestCaseError::fail(format!("postpone: {e}")))?;
            }
            Op::RequestPowerDown => {
                dev.request_power_down(now)
                    .map_err(|e| TestCaseError::fail(format!("power down: {e}")))?;
            }
            Op::SetQuota { aus } => {
                // A quota below what the host already maps is refused.
                match dev.set_host_quota(HostId(0), aus.map(u32::from)) {
                    Ok(()) | Err(DtlError::QuotaExceeded { .. }) => {}
                    Err(e) => return Err(TestCaseError::fail(format!("quota: {e}"))),
                }
            }
        }
        dev.check_invariants()
            .map_err(|e| TestCaseError::fail(format!("invariant after {op:?}: {e}")))?;
    }
    // Drain: run migrations out and re-check.
    for _ in 0..50 {
        now += Picos::from_ms(1);
        dev.tick(now).map_err(|e| TestCaseError::fail(format!("drain tick: {e}")))?;
    }
    dev.check_invariants().map_err(|e| TestCaseError::fail(format!("final invariant: {e}")))?;
    // Deallocate everything; device must come back fully free.
    for (h, _) in vms {
        dev.dealloc_vm(h, now).map_err(|e| TestCaseError::fail(format!("final dealloc: {e}")))?;
    }
    for _ in 0..50 {
        now += Picos::from_ms(1);
        dev.tick(now).map_err(|e| TestCaseError::fail(format!("post tick: {e}")))?;
    }
    dev.check_invariants()
        .map_err(|e| TestCaseError::fail(format!("post-dealloc invariant: {e}")))?;
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn invariants_hold_with_both_mechanisms(
        ops in prop::collection::vec(any_op(), 1..60),
        policy in 0u8..3,
    ) {
        run_ops(&ops, policy, true, true)?;
    }

    #[test]
    fn invariants_hold_powerdown_only(
        ops in prop::collection::vec(any_op(), 1..60),
        policy in 0u8..3,
    ) {
        run_ops(&ops, policy, false, true)?;
    }

    #[test]
    fn invariants_hold_hotness_only(
        ops in prop::collection::vec(any_op(), 1..60),
        policy in 0u8..3,
    ) {
        run_ops(&ops, policy, true, false)?;
    }
}
