//! `dtl-fabric` and the `dtl-cxl` retry engines behind it: the
//! interconnects a pool charges its link traffic through, wrapped at the
//! `Interconnect` seam.

use dtl_cxl::{LinkModel, RetryPolicy};
use dtl_dram::Picos;
use dtl_fabric::{
    CxlFabric, FabricError, FabricReport, Interconnect, PointToPoint, TopologyConfig,
};

use super::Counters;
use crate::timed::Timed;

/// Dedicated wires, one per device — what `MemoryPool::analytic` builds.
pub fn point_to_point(link: LinkModel, retry: RetryPolicy, devices: u16) -> Box<dyn Interconnect> {
    Box::new(Timed(PointToPoint::new(link, retry, devices)))
}

/// A switched CXL fabric over `topology`.
pub fn switched(
    topology: TopologyConfig,
    link: LinkModel,
    retry: RetryPolicy,
) -> Result<Box<dyn Interconnect>, FabricError> {
    Ok(Box::new(Timed(CxlFabric::new(topology, link, retry)?)))
}

/// `Interconnect::fabric_report`.
pub fn report(ic: &dyn Interconnect, end: Picos) -> Option<FabricReport> {
    ic.fabric_report(end)
}

/// Adds the link layer's simulated retry and queueing figures to `out`.
pub fn count_into(ic: &dyn Interconnect, out: &mut Counters) {
    let link = ic.stats();
    out.add("cxl.crc_retries", link.retries as f64);
    out.add("cxl.retry_time_ps", link.retry_time.as_ps() as f64);
    if let Some(q) = ic.queue_latency() {
        out.max("fabric.queue_p99_ps", q.p99_ps as f64);
    }
}
