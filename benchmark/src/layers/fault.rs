//! `dtl-fault`: seeded pool-level fault plans.

use dtl_fault::{PoolFaultInjector, PoolFaultPlanConfig};

use crate::span::{span, Layer};

/// `PoolFaultPlanConfig::generate` and the injector over the plan.
pub fn plan(cfg: &PoolFaultPlanConfig) -> PoolFaultInjector {
    span(Layer::FaultPlan, || cfg.generate().injector())
}
