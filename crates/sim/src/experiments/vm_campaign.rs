//! **VM campaign** (fleet scale, paper §7 outlook) — a thousand
//! independent paper nodes replaying a multi-week VM schedule, driven
//! purely by posted events on the `dtl-event` spine (no tick grid; see
//! `vm_campaign_run`). The headline is the fleet-wide background energy
//! saved by rank consolidation against an always-standby baseline, and
//! the run itself doubles as the event-spine throughput benchmark: the
//! result carries the fleet's processed-event count so the perf ledger's
//! `fleet_events` workload can quote events/sec against its wall clock.

pub use crate::vm_campaign_run::{
    run_campaign as run, CampaignObservations, HostOutcome, VmCampaignConfig, VmCampaignResult,
};
